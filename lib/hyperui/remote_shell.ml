(* The `hpjava connect` client shell: a line-oriented (interactive and
   pipe-scriptable) front-end over the wire protocol.

   The local state is one edit buffer (`edit ROOT` + `type TEXT` build
   it, `save` sends it) and the last saved edit, kept so a lost commit
   race is retried with one command: the server answers Commit with a
   typed conflict frame and has already opened a fresh-snapshot session,
   so `retry` just re-sends the same edit and commits again. *)

module Client = Server.Client
module Protocol = Server.Protocol

let help_text =
  {|commands:
  roots | programs               browse the served store (snapshot view)
  census                         instances per class in the store's shared heap
  root NAME                      show one root
  get-link HP LINK               resolve a registered hyper-link
  edit ROOT                      start an edit buffer bound to root ROOT
  type TEXT                      append TEXT and a newline (\n escapes expand too)
  save                           send the buffered edit (kept for retry)
  commit                         publish this session's buffered edits (first committer wins)
  retry                          after a conflict: re-send the last edit and commit again
  compile                        send the buffer as plain Java source
  abort                          discard this session's buffered edits
  stats | health                 server-side counters / store health
  help | quit
|}

(* Flush every line: scripted clients are observed through their live
   transcript (pipes, files), where buffered output would stall the
   observer until exit. *)
let say fmt = Printf.ksprintf (fun s -> print_string s; flush stdout) fmt

let run ~client ~input =
  let pending : (string * string) option ref = ref None in
  let root = ref "" in
  let buf = Buffer.create 256 in
  let quit = ref false in
  let rpc req =
    print_endline (Protocol.describe_response (Client.rpc client req));
    flush stdout
  in
  let interactive = Unix.isatty (Unix.descr_of_in_channel input) in
  say "connected: session %d on %s\n" (Client.session client) (Client.server client);
  let handle line =
    match Shell.split_args line with
    | [] -> ()
    | "help" :: _ -> print_string help_text
    | ("quit" | "exit") :: _ -> quit := true
    | [ "edit"; name ] ->
      root := name;
      Buffer.clear buf;
      say "editing root %s (build the source with `type`, then `save`)\n" name
    | "edit" :: _ -> say "usage: edit ROOT\n"
    | "type" :: _ ->
      let text = if String.length line > 5 then String.sub line 5 (String.length line - 5) else "" in
      Buffer.add_string buf (Shell.unescape text);
      Buffer.add_char buf '\n'
    | "save" :: _ ->
      if !root = "" then say "no edit open (use `edit ROOT` first)\n"
      else begin
        let source = Buffer.contents buf in
        pending := Some (!root, source);
        rpc (Protocol.Edit { root = !root; source })
      end
    | "commit" :: _ -> rpc Protocol.Commit
    | "retry" :: _ -> begin
      match !pending with
      | None -> say "nothing to retry (no saved edit)\n"
      | Some (root, source) ->
        rpc (Protocol.Edit { root; source });
        rpc Protocol.Commit
    end
    | "compile" :: _ -> rpc (Protocol.Compile { source = Buffer.contents buf })
    | "roots" :: _ -> rpc (Protocol.Browse Protocol.Roots)
    | "census" :: _ -> rpc (Protocol.Browse Protocol.Census)
    | "programs" :: _ -> rpc (Protocol.Browse Protocol.Programs)
    | [ "root"; name ] -> rpc (Protocol.Browse (Protocol.Root name))
    | [ "get-link"; hp; link ] -> begin
      match (int_of_string_opt hp, int_of_string_opt link) with
      | Some hp, Some link -> rpc (Protocol.Get_link { hp; link })
      | _ -> say "usage: get-link HP LINK (both numbers)\n"
    end
    | "abort" :: _ -> rpc Protocol.Abort
    | "stats" :: _ -> rpc Protocol.Stats
    | "health" :: _ -> rpc Protocol.Health
    | cmd :: _ -> say "unknown command %s (try `help`)\n" cmd
  in
  (try
     while not !quit do
       if interactive then begin
         print_string "hp@> ";
         flush stdout
       end;
       match input_line input with
       | line -> handle line
       | exception End_of_file -> quit := true
     done;
     Client.close client
   with
  | Server.Frame.Closed ->
    flush stdout;
    prerr_endline "hpjava: server closed the connection";
    exit 1
  | Stdlib.Failure msg ->
    flush stdout;
    Printf.eprintf "hpjava: %s\n" msg;
    exit 1);
  flush stdout
