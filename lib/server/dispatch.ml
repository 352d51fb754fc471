(* Per-connection request dispatch.

   Each authenticated connection owns one Store.Session: its Hello pins
   a snapshot, edits buffer root bindings in it, and Commit publishes
   them under first-committer-wins conflict detection.  A commit, abort
   or conflict consumes the session, so a fresh one (new snapshot) is
   opened immediately — the client retries a lost race by simply
   re-sending its edit, no reconnect needed.

   Every failure a request can hit is answered as one typed frame:
   Conflict for a lost commit race, Refused with a stable error code for
   everything else.  Nothing a client sends may kill the server, and
   nothing may leak a session — [teardown] aborts whatever is open when
   the connection dies, however it dies. *)

open Pstore
open Minijava
open Hyperprog

type conn = {
  vm : Rt.t;
  store : Store.t;
  server_name : string;
  mutable password : string option;  (* set by a successful Hello *)
  mutable session : Store.Session.t option;
  mutable closing : bool;  (* Bye received: close after the answer is written *)
}

let create ~vm ~store ~name =
  { vm; store; server_name = name; password = None; session = None; closing = false }

let obs c = Store.obs c.store
let refused code message = Protocol.Refused { code; message }

(* The connection's snapshot session.  Dispatch only runs it after Hello
   opened one, but a commit that raised something unexpected may have
   consumed it — reopen rather than crash. *)
let session c =
  match c.session with
  | Some s when Store.Session.is_open s -> s
  | Some _ | None ->
    let s = Store.open_session c.store in
    c.session <- Some s;
    s

let fresh_session c = c.session <- Some (Store.open_session c.store)

let teardown c =
  (match c.session with
  | Some s when Store.Session.is_open s -> ( try Store.Session.abort s with _ -> ())
  | Some _ | None -> ());
  c.session <- None;
  c.password <- None

(* -- request execution ------------------------------------------------------- *)

let render_roots c =
  let s = session c in
  let names = Store.Session.root_names s in
  if names = [] then "no roots"
  else
    String.concat "\n"
      (List.map
         (fun name ->
           let v = Option.value (Store.Session.root s name) ~default:Pvalue.Null in
           Printf.sprintf "%-24s %s" name (Pvalue.to_string v))
         names)

let render_programs c =
  match Registry.live_programs c.vm with
  | [] -> "no live hyper-programs"
  | programs ->
    String.concat "\n"
      (List.map
         (fun (uid, oid) ->
           let name = Storage_form.class_name c.vm oid in
           Printf.sprintf "hp %d @%d %s" uid (Oid.to_int oid)
             (if name = "" then "(unnamed)" else name))
         programs)

let render_stats c =
  let o = obs c in
  let st = Store.Session.stats (session c) in
  String.concat "\n"
    [
      Printf.sprintf "server: %s" c.server_name;
      Printf.sprintf "operations: %d" (Obs.total o);
      Printf.sprintf "net requests: %d" (Obs.count o Obs.Net_request);
      Printf.sprintf "net errors: %d" (Obs.count o Obs.Net_error);
      Printf.sprintf "auth refusals: %d" (Auth.refusal_count ());
      Printf.sprintf "open sessions: %d" (Store.open_session_count c.store);
      Printf.sprintf "session commits: %d" (Obs.count o Obs.Session_commit);
      Printf.sprintf "commit conflicts: %d" (Obs.count o Obs.Conflict);
      Printf.sprintf "live objects: %d" st.Store.live;
      Printf.sprintf "chain entries: %d" st.Store.chain_entries;
    ]

let render_health c =
  let st = Store.Session.stats (session c) in
  String.concat "\n"
    [
      Printf.sprintf "healthy: %s" (if Store.healthy c.store then "yes" else "no");
      Printf.sprintf "live objects: %d" st.Store.live;
      Printf.sprintf "quarantined: %d" st.Store.quarantined;
      Printf.sprintf "unhealthy shards: %d" st.Store.unhealthy_shards;
      Printf.sprintf "open sessions: %d" (Store.open_session_count c.store);
    ]

let exec c (req : Protocol.request) : Protocol.response =
  match req with
  | Hello _ when c.password <> None ->
    refused Protocol.code_proto "already authenticated; one hello per connection"
  | Hello { version; password } -> begin
    match Auth.validate c.vm ~version ~password with
    | Error { Auth.code; message } -> refused code message
    | Ok () ->
      c.password <- Some password;
      let s = session c in
      Hello_ok { session = Store.Session.id s; server = c.server_name }
  end
  | _ when c.password = None ->
    refused Protocol.code_auth "hello first: authenticate with the registry password"
  | Browse Roots -> Ok_text (render_roots c)
  | Browse Census -> Ok_text (String.trim (Browser.Render.census c.store))
  | Browse (Root name) -> begin
    match Store.Session.root (session c) name with
    | Some v -> Ok_text (Printf.sprintf "%s = %s" name (Pvalue.to_string v))
    | None -> refused Protocol.code_not_found (Printf.sprintf "no root named %s" name)
  end
  | Browse Programs -> Ok_text (render_programs c)
  | Get_link { hp; link } -> begin
    let password = Option.get c.password in
    match Registry.try_get_link c.vm ~password ~hp ~link with
    | Ok v -> Ok_text (Pvalue.to_string v)
    | Error (Failure.Collected _ as f) | Error (Failure.Bad_index _ as f) ->
      refused Protocol.code_not_found (Failure.describe f)
    | Error f -> refused Protocol.code_broken_link (Failure.describe f)
  end
  | Edit { root; source } ->
    if root = "" then refused Protocol.code_refused "edit needs a nonempty root name"
    else begin
      let password = Option.get c.password in
      (* Only the root binding goes through the connection's session,
         so it is the write the commit race is decided on.  The storage
         form and the registry entry are written on the VM's default
         session, so an Edit that is aborted or loses its commit still
         leaves both behind.  They stay outside the session because
         [Registry.add_hp] bumps the registry's shared [count] field:
         inside sessions every two publishes would conflict on it, and
         the benchmark's wire-write conflict model, which expects
         conflicts only on shared roots, would read them as wrong. *)
      let hp = Hyper_source.to_storage c.vm source in
      let uid = Registry.add_hp c.vm ~password hp in
      let s = session c in
      Store.Session.set_root s root (Pvalue.Ref hp);
      Ok_text
        (Printf.sprintf "edit buffered in session %d: root %s -> hyper-program %d (@%d); commit to publish"
           (Store.Session.id s) root uid (Oid.to_int hp))
    end
  | Compile { source } ->
    let rcs = Dynamic_compiler.compile_strings ~mode:Direct c.vm ~names:[] [ source ] in
    Store.stabilise c.store;
    Ok_text
      (Printf.sprintf "compiled %s"
         (String.concat ", " (List.map (fun rc -> rc.Rt.rc_name) rcs)))
  | Commit -> begin
    let s = session c in
    let id = Store.Session.id s in
    let n = Store.Session.buffered_ops s in
    match Store.Session.commit s with
    | () ->
      fresh_session c;
      Ok_text (Printf.sprintf "committed session %d: %d op%s" id n (if n = 1 then "" else "s"))
    | exception Failure.Commit_conflict { session = sid; oids; keys } ->
      (* The losing session is already aborted; hand the typed conflict
         to the client and open the fresh snapshot it will retry under. *)
      fresh_session c;
      Conflict { session = sid; oids = List.map Oid.to_int oids; keys }
  end
  | Abort ->
    let s = session c in
    let id = Store.Session.id s in
    let n = Store.Session.buffered_ops s in
    Store.Session.abort s;
    fresh_session c;
    Ok_text
      (Printf.sprintf "aborted session %d: %d buffered op%s discarded" id n
         (if n = 1 then "" else "s"))
  | Stats -> Ok_text (render_stats c)
  | Health -> Ok_text (render_health c)
  | Bye ->
    c.closing <- true;
    Ok_text "bye"

(* Every exception a request can raise, folded into the typed error
   vocabulary.  The catch-all is deliberate: a server that dies on a
   surprising exception fails every other connected client too. *)
let exec_catching c req =
  try exec c req with
  | Failure.Commit_conflict _ as e -> raise e (* handled at the Commit site *)
  | Failure.Shard_degraded { shard; state; reason } ->
    refused Protocol.code_degraded
      (Printf.sprintf "shard %d is %s (%s); writes refused until repair" shard state reason)
  | Rt.Jerror { jclass; message; _ } ->
    refused Protocol.code_vm (Printf.sprintf "%s: %s" jclass message)
  | Jcompiler.Compile_error e ->
    refused Protocol.code_compile (Format.asprintf "%a" Jcompiler.pp_error e)
  | Hyper_source.Format_error msg -> refused Protocol.code_bad_source msg
  | Invalid_argument msg -> refused Protocol.code_refused msg
  | Stdlib.Failure msg -> refused Protocol.code_internal msg
  | Stack_overflow -> refused Protocol.code_internal "stack overflow"
  | e -> refused Protocol.code_internal (Printexc.to_string e)

(* One request body in, one response body out. *)
let handle c body =
  Obs.incr (obs c) Obs.Net_request;
  let resp =
    match Protocol.decode_request body with
    | Error msg -> refused Protocol.code_proto msg
    | Ok req -> exec_catching c req
  in
  (match resp with
  | Protocol.Refused _ -> Obs.incr (obs c) Obs.Net_error
  | _ -> ());
  Protocol.encode_response resp

(* A framing violation also gets one typed answer (then the server
   closes the connection — framing has no resync point). *)
let framing_error c err =
  Obs.incr (obs c) Obs.Net_request;
  Obs.incr (obs c) Obs.Net_error;
  Protocol.encode_response (refused Protocol.code_proto (Frame.describe_error err))
