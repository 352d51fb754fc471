(* The hyper-programming server: a long-lived, multi-client front-end
   over one open store.

   Single-threaded select loop.  The store (and the VM above it) is not
   thread-safe, and it does not need to be: per-client isolation comes
   from MVCC sessions, not threads, so one loop dispatches every
   connection and no lock exists to get wrong.  The risk that remains —
   a stalled client blocking the loop inside a write — is bounded with a
   send timeout: a connection that cannot drain its answer in
   [write_timeout] seconds is dropped, not waited on.

   Each connection starts undecided and is sniffed on its first bytes:
   the wire protocol announces itself with the "hpw1" frame magic, and
   anything that starts like an HTTP request ("GET " / "HEAD") is routed
   to the read-only live dashboard.  Everything else is answered with
   one typed proto-error frame and closed — the fuzz suite's garbage
   openings land here. *)

open Pstore
open Hyperprog

let write_timeout = 5.0
let max_http_request = 16 * 1024

type kind =
  | Sniffing
  | Wire of Dispatch.conn
  | Http

type conn = {
  fd : Unix.file_descr;
  mutable kind : kind;
  mutable input : string;  (* accumulated unconsumed input *)
  mutable dead : bool;
}

(* -- the HTTP dashboard ------------------------------------------------------ *)

let http_response ~status ~body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

let error_page ~status detail =
  http_response ~status
    ~body:
      (Printf.sprintf "<!DOCTYPE html>\n<html><body><h1>%s</h1>%s</body></html>\n"
         (String.sub status 0 3) detail)

let not_found path =
  error_page ~status:"404 Not Found"
    (Printf.sprintf "<p>no page at %s</p>" (Html_export.escape path))

(* Routes: /  /index.html  /hp/<uid>  /hp/<uid>/link/<i> — all read-only. *)
let http_route vm path =
  let segments = String.split_on_char '/' path |> List.filter (fun s -> s <> "") in
  match segments with
  | [] | [ "index.html" ] -> http_response ~status:"200 OK" ~body:(Html_export.live_index vm)
  | [ "hp"; uid ] -> begin
    match int_of_string_opt uid with
    | None -> not_found path
    | Some uid -> begin
      match Html_export.live_page vm ~uid with
      | Some body -> http_response ~status:"200 OK" ~body
      | None -> not_found path
    end
  end
  | [ "hp"; uid; "link"; link ] -> begin
    match (int_of_string_opt uid, int_of_string_opt link) with
    | Some uid, Some link ->
      http_response ~status:"200 OK" ~body:(Html_export.live_link_page vm ~uid ~link)
    | _ -> not_found path
  end
  | _ -> not_found path

(* A page that raises — a damaged program record, say — answers 500 and
   the loop goes on serving, as [Dispatch.exec_catching] does for wire
   requests. *)
let http_answer vm request =
  try
    match String.split_on_char ' ' (List.hd (String.split_on_char '\r' request)) with
    | ("GET" | "HEAD") :: path :: _ -> http_route vm path
    | _ -> error_page ~status:"400 Bad Request" ""
  with e ->
    error_page ~status:"500 Internal Server Error"
      (Printf.sprintf "<p>%s</p>" (Html_export.escape (Printexc.to_string e)))

(* -- the loop ---------------------------------------------------------------- *)

let stop_requested = ref false

let install_signals () =
  (* A client hanging up mid-write must be an EPIPE we catch, never a
     process-killing signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let request_stop _ = stop_requested := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)

let close_conn conn =
  if not conn.dead then begin
    conn.dead <- true;
    (match conn.kind with Wire d -> Dispatch.teardown d | Sniffing | Http -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Write an answer on the blocking fd (send timeout armed at accept).
   Any write failure — timeout, reset, EPIPE — kills this connection
   only. *)
let send conn s =
  try Frame.really_write conn.fd s
  with Frame.Closed | Unix.Unix_error _ -> close_conn conn

let drop conn consumed =
  conn.input <- String.sub conn.input consumed (String.length conn.input - consumed)

let is_prefix ~prefix:s data =
  let n = min (String.length s) (String.length data) in
  String.sub data 0 n = String.sub s 0 n

(* Process whatever whole units the accumulated input holds. *)
let rec pump ~vm ~store ~name conn =
  if not conn.dead then
    match conn.kind with
    | Sniffing ->
      let d = conn.input in
      if String.length d >= 4 then begin
        if is_prefix ~prefix:"GET " d || is_prefix ~prefix:"HEAD" d then
          conn.kind <- Http
        else conn.kind <- Wire (Dispatch.create ~vm ~store ~name);
        pump ~vm ~store ~name conn
      end
      else if
        not
          (is_prefix ~prefix:Frame.magic d || is_prefix ~prefix:"GET " d
          || is_prefix ~prefix:"HEAD" d)
      then begin
        (* Too short to sniff but already impossible: treat as wire so
           the garbage gets its one typed proto answer. *)
        conn.kind <- Wire (Dispatch.create ~vm ~store ~name);
        pump ~vm ~store ~name conn
      end
    | Wire d -> begin
      match Frame.extract conn.input with
      | Need _ -> ()
      | Bad err ->
        send conn (Frame.encode (Dispatch.framing_error d err));
        close_conn conn
      | Got (body, consumed) ->
        drop conn consumed;
        send conn (Frame.encode (Dispatch.handle d body));
        if d.Dispatch.closing then close_conn conn else pump ~vm ~store ~name conn
    end
    | Http ->
      (* One request, one page, close — the dashboard speaks HTTP/1.0. *)
      let has sub =
        let n = String.length sub and len = String.length conn.input in
        let rec go i = i + n <= len && (String.sub conn.input i n = sub || go (i + 1)) in
        go 0
      in
      if has "\r\n\r\n" || has "\n\n" then begin
        send conn (http_answer vm conn.input);
        close_conn conn
      end
      else if String.length conn.input > max_http_request then close_conn conn

(* [chunk] is the loop's one read buffer: the loop is single-threaded,
   and each read is copied out before the next one. *)
let handle_readable ~vm ~store ~name ~chunk conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> close_conn conn (* EOF — mid-request disconnects land here too *)
  | n ->
    conn.input <- conn.input ^ Bytes.sub_string chunk 0 n;
    pump ~vm ~store ~name conn
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let listen_on addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 64;
  fd

let run ?tcp_port ~socket ~store ~vm () =
  install_signals ();
  stop_requested := false;
  if Sys.file_exists socket then Sys.remove socket;
  let name = Filename.basename socket in
  let listeners =
    listen_on (Unix.ADDR_UNIX socket)
    ::
    (match tcp_port with
    | None -> []
    | Some port -> [ listen_on (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) ])
  in
  Printf.printf "hpjava server: listening on %s%s\n" socket
    (match tcp_port with
    | None -> ""
    | Some port -> Printf.sprintf " and 127.0.0.1:%d" port);
  flush stdout;
  let conns : conn list ref = ref [] in
  let chunk = Bytes.create 65536 in
  let accept lfd =
    match Unix.accept lfd with
    | fd, _addr ->
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO write_timeout;
      conns := { fd; kind = Sniffing; input = ""; dead = false } :: !conns
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  while not !stop_requested do
    conns := List.filter (fun c -> not c.dead) !conns;
    let watched = listeners @ List.map (fun c -> c.fd) !conns in
    match Unix.select watched [] [] 0.25 with
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if List.memq fd listeners then accept fd
          else
            match List.find_opt (fun c -> c.fd == fd) !conns with
            | Some conn -> handle_readable ~vm ~store ~name ~chunk conn
            | None -> ())
        readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful exit: every open session is aborted (no leaks), the store
     is made durable, and the socket path is removed. *)
  List.iter close_conn !conns;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  (try Store.stabilise store
   with Failure.Shard_degraded _ | Invalid_argument _ -> ());
  if Sys.file_exists socket then ( try Sys.remove socket with Sys_error _ -> ());
  Printf.printf "hpjava server: shut down\n";
  flush stdout
