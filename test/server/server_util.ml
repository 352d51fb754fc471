(* Shared plumbing for the server suites: a live `hpjava serve`
   subprocess over a sandboxed store, raw-socket probes for the fuzzer,
   and the session-leak probe every attack is followed by.

   The server is always the real binary (never an in-process loop), so
   what these tests exercise is exactly what a deployment runs —
   including signal handling, socket lifecycle and process shutdown. *)

include Test_support.Support
include Test_support.Subprocess
module Frame = Server.Frame
module Protocol = Server.Protocol
module Client = Server.Client

let full_mode () = Sys.getenv_opt "SERVER_FUZZ_FULL" = Some "1"

(* -- a live server over a fresh store -------------------------------------- *)

type server = {
  proc : Test_support.Subproc.proc;
  socket : string;
  store : string;
}

(* Serve an existing store file; [prepare] runs on it first (after
   `hpjava init`), for a store built in-process. *)
let spawn_server ?(prepare = ignore) ~dir () =
  let store = Filename.concat dir "store.hpj" in
  expect_ok (hpjava [ "init"; store ]);
  prepare store;
  let socket = Filename.concat dir "hp.sock" in
  let proc =
    Test_support.Subproc.spawn
      ~bin:(Test_support.Subproc.locate ())
      [ "serve"; store; "--socket"; socket ]
  in
  if not (Test_support.Subproc.wait_output ~timeout_s:30. proc "listening on") then
    Alcotest.failf "`hpjava serve` never came up:\n%s"
      (Test_support.Subproc.describe (Test_support.Subproc.terminate proc));
  { proc; socket; store }

let with_server ?prepare f =
  with_dir ~prefix:"server" @@ fun dir ->
  let srv = spawn_server ?prepare ~dir () in
  Fun.protect
    ~finally:(fun () -> ignore (Test_support.Subproc.terminate srv.proc))
    (fun () -> f srv)

let server_alive srv = Test_support.Subproc.alive srv.proc

(* -- raw sockets (the fuzzer's view) ---------------------------------------- *)

(* A plain connected fd with a short receive timeout: attack payloads
   often make the server (correctly) wait for bytes that never come, so
   every read must be able to give up. *)
let dial ?(recv_timeout = 1.0) socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout;
  fd

let send_raw fd data = try Frame.really_write fd data with Frame.Closed -> ()

(* What a connection saw back after an attack.  Anything in this type is
   an acceptable outcome — the assertions care that the server never
   crashes and that typed answers stay decodable. *)
type answer =
  | Typed of Protocol.response
  | Hung_up
  | Silent
  | Unframed of string  (* bytes that were not a frame (e.g. an HTTP answer) *)

let read_answer fd =
  match Frame.read_frame fd with
  | body -> begin
    match Protocol.decode_response body with
    | Ok r -> Typed r
    | Error e -> Alcotest.failf "server answered an undecodable response frame: %s" e
  end
  | exception Frame.Closed -> Hung_up
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Silent
  | exception Failure msg -> Unframed msg

(* Read whatever the peer sends until EOF/timeout — the HTTP path. *)
let slurp fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let http_get ?(recv_timeout = 5.0) socket path =
  let fd = dial ~recv_timeout socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_raw fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
      slurp fd)

(* -- the leak probe ---------------------------------------------------------

   After every attack the server must still answer a fresh well-formed
   client, and the attack's connection (with any session it opened) must
   be gone.  The probe's own session is the one the count reports.  EOF
   cleanup happens on the server's next select cycle, so poll briefly
   rather than racing it. *)

let probe ?(timeout_s = 5.) srv =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec attempt last =
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "leak probe: sessions never drained to 1; last stats:\n%s" last
    else begin
      let c = Client.connect (Client.unix_addr srv.socket) in
      let stats =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.rpc c Protocol.Stats with
            | Protocol.Ok_text text -> text
            | other -> Alcotest.failf "probe stats: %s" (Protocol.describe_response other))
      in
      if contains stats "open sessions: 1" then ()
      else begin
        Unix.sleepf 0.02;
        attempt stats
      end
    end
  in
  attempt "(no stats read)";
  if not (server_alive srv) then
    Alcotest.failf "server died:\n%s" (Test_support.Subproc.describe (Test_support.Subproc.collect srv.proc))

(* -- misc ------------------------------------------------------------------- *)

(* The uid out of the edit answer ("... -> hyper-program N (@M); ..."). *)
let uid_of_edit_answer text =
  let i = index_of text "hyper-program " in
  let start = i + String.length "hyper-program " in
  let stop = ref start in
  while !stop < String.length text && text.[!stop] >= '0' && text.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub text start (!stop - start))

let hyper_source ?(cls = "Probe") ?(comment = "probe") n =
  Printf.sprintf "//! class: %s\n//! link 0: int %d\npublic class %s {\n  // %s #<0>\n}\n" cls n
    cls comment
