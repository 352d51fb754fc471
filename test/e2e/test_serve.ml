(* Serving hyper-programs, end to end: `hpjava serve` and `hpjava
   connect` as black-box subprocesses only — no server library linked
   in, exactly what a user at two terminals runs.

   Covers the exit-code matrix of the networked subcommands, the
   N-client commit race with deterministic interleaving (clients are
   sequenced by polling their live transcripts), and the durability
   contract: roots committed over the wire survive a SIGKILLed server
   and serve again after a restart. *)

open E2e_util

let bin = Test_support.Subproc.locate ()

(* -- a served store --------------------------------------------------------- *)

let spawn_server ~dir ~store =
  let socket = Filename.concat dir "hp.sock" in
  let proc = Test_support.Subproc.spawn ~bin [ "serve"; store; "--socket"; socket ] in
  if not (Test_support.Subproc.wait_output ~timeout_s:30. proc "listening on") then
    Alcotest.failf "`hpjava serve` never came up:\n%s"
      (Test_support.Subproc.describe (Test_support.Subproc.terminate proc));
  (proc, socket)

let with_served f =
  with_store @@ fun ~dir ~store ->
  let server, socket = spawn_server ~dir ~store in
  Fun.protect
    ~finally:(fun () -> ignore (Test_support.Subproc.terminate server))
    (fun () -> f ~dir ~store ~server ~socket)

(* A scripted client: `hpjava connect` fed through a pipe, observed
   through its live transcript. *)
let spawn_client ?(args = []) socket =
  Test_support.Subproc.spawn ~bin ~pipe_stdin:true ([ "connect"; socket ] @ args)

let client_expect proc needle =
  if not (Test_support.Subproc.wait_output ~timeout_s:30. proc needle) then
    Alcotest.failf "client never printed %S; transcript so far:\n%s\n-- stderr --\n%s" needle
      (Test_support.Subproc.proc_output proc)
      (Test_support.Subproc.proc_errors proc)

let edit_script ~cls ~root n =
  Printf.sprintf
    "edit %s\ntype //! class: %s\ntype //! link 0: int %d\ntype public class %s {\ntype   // \
     #<0>\ntype }\nsave\n"
    root cls n cls

(* -- exit codes -------------------------------------------------------------- *)

let serve_missing_store_exits_2 () =
  with_dir @@ fun dir ->
  let absent = Filename.concat dir "absent.hpj" in
  let r = hpjava [ "serve"; absent ] in
  expect_fail ~stderr_has:"no store" r;
  check_int "serve missing store" 2 (Option.value (Test_support.Subproc.exit_code r) ~default:(-1))

let connect_unreachable_exits_2 () =
  with_dir @@ fun dir ->
  let r = hpjava [ "connect"; Filename.concat dir "nobody.sock" ] in
  expect_fail ~stderr_has:"cannot reach server" r;
  check_int "connect unreachable" 2 (Option.value (Test_support.Subproc.exit_code r) ~default:(-1));
  check_bool "points at `hpjava serve`" true
    (Test_support.Subproc.contains r.Test_support.Subproc.stderr "hpjava serve")

let connect_bad_password_exits_1 () =
  with_served @@ fun ~dir:_ ~store:_ ~server:_ ~socket ->
  let r = hpjava [ "connect"; socket; "--password"; "wrong" ] in
  expect_fail ~stderr_has:"auth" r;
  check_int "auth refusal" 1 (Option.value (Test_support.Subproc.exit_code r) ~default:(-1))

let second_serve_on_the_socket_fails () =
  with_served @@ fun ~dir ~store:_ ~server:_ ~socket:_ ->
  (* a second server over the same store must not silently wedge *)
  let store2 = Filename.concat dir "other.hpj" in
  expect_ok (hpjava [ "init"; store2 ]);
  let sock2 = Filename.concat dir "hp2.sock" in
  let second = Test_support.Subproc.spawn ~bin [ "serve"; store2; "--socket"; sock2 ] in
  if not (Test_support.Subproc.wait_output ~timeout_s:30. second "listening on") then
    Alcotest.failf "independent second server failed:\n%s"
      (Test_support.Subproc.describe (Test_support.Subproc.terminate second));
  ignore (Test_support.Subproc.terminate second)

(* -- the multi-client race ---------------------------------------------------

   N real `hpjava connect` processes, sequenced deterministically: all
   clients buffer an edit of the same root, then commits are released
   one at a time.  The first commit wins; every later client must print
   the typed conflict line, then retry (fresh edit + commit under the
   fresh-snapshot session the server already opened) and win in turn. *)

let n_clients = 3

let multi_client_race () =
  with_served @@ fun ~dir:_ ~store:_ ~server:_ ~socket ->
  let clients = List.init n_clients (fun _ -> spawn_client socket) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun c -> ignore (Test_support.Subproc.terminate c)) clients)
  @@ fun () ->
  (* every client buffers its own edit of the shared root *)
  List.iteri
    (fun i c ->
      client_expect c "connected: session";
      Test_support.Subproc.send c (edit_script ~cls:(Printf.sprintf "Race%d" i) ~root:"shared" i);
      client_expect c "commit to publish")
    clients;
  (* release the commits strictly one at a time *)
  List.iteri
    (fun i c ->
      Test_support.Subproc.send c "commit\n";
      if i = 0 then client_expect c "committed session"
      else begin
        (* every later client lost to an earlier committer *)
        client_expect c "commit conflict:";
        client_expect c "first committer wins";
        client_expect c "clashes: shared";
        (* retry under the fresh snapshot: re-edit, then commit wins *)
        Test_support.Subproc.send c
          (edit_script ~cls:(Printf.sprintf "Retry%d" i) ~root:"shared" (100 + i));
        client_expect c "commit to publish";
        Test_support.Subproc.send c "commit\n";
        client_expect c "committed session"
      end)
    clients;
  (* the last retry is the published binding, visible to a fresh client *)
  let reader = spawn_client socket in
  Test_support.Subproc.send reader "root shared\nprograms\nquit\n";
  let r = Test_support.Subproc.collect reader in
  expect_ok r;
  expect_stdout_has r "shared = ";
  expect_stdout_has r (Printf.sprintf "Retry%d" (n_clients - 1));
  List.iter (fun c -> Test_support.Subproc.send c "quit\n") clients

(* -- durability across a murdered server ------------------------------------- *)

let sigkill_loses_no_committed_roots () =
  with_store @@ fun ~dir ~store ->
  let server, socket = spawn_server ~dir ~store in
  let c = spawn_client socket in
  client_expect c "connected: session";
  (* one committed root, one buffered-but-uncommitted edit *)
  Test_support.Subproc.send c (edit_script ~cls:"Durable" ~root:"kept" 1);
  client_expect c "commit to publish";
  Test_support.Subproc.send c "commit\n";
  client_expect c "committed session";
  Test_support.Subproc.send c (edit_script ~cls:"Volatile" ~root:"dropped" 2);
  client_expect c "commit to publish";
  (* murder the server mid-session *)
  ignore (Test_support.Subproc.terminate ~signal:Sys.sigkill server);
  ignore (Test_support.Subproc.terminate c);
  (* the committed root is in the store; the uncommitted one is not *)
  let roots = hpjava [ "roots"; store ] in
  expect_ok roots;
  expect_stdout_has roots "kept";
  expect_stdout_lacks roots "dropped";
  (* and a restarted server serves it over the wire again *)
  let server2, socket2 = spawn_server ~dir ~store in
  Fun.protect
    ~finally:(fun () -> ignore (Test_support.Subproc.terminate server2))
  @@ fun () ->
  let reader = spawn_client socket2 in
  Test_support.Subproc.send reader "root kept\nquit\n";
  let r = Test_support.Subproc.collect reader in
  expect_ok r;
  expect_stdout_has r "kept = "

(* -- graceful shutdown -------------------------------------------------------- *)

let sigterm_shuts_down_cleanly () =
  with_store @@ fun ~dir ~store ->
  let server, socket = spawn_server ~dir ~store in
  let r = Test_support.Subproc.terminate server in
  check_bool "served and exited" true
    (Test_support.Subproc.ok r || Test_support.Subproc.signalled r <> None);
  expect_stdout_has r "shut down";
  check_bool "socket removed on shutdown" false (Sys.file_exists socket)

let suite =
  [
    test "serve refuses a missing store (exit 2)" serve_missing_store_exits_2;
    test "connect refuses an unreachable server (exit 2)" connect_unreachable_exits_2;
    test "connect refuses a bad password (exit 1)" connect_bad_password_exits_1;
    test "independent servers coexist" second_serve_on_the_socket_fails;
    test "three clients race one root" multi_client_race;
    test "SIGKILL loses no committed roots" sigkill_loses_no_committed_roots;
    test "SIGTERM shuts down cleanly" sigterm_shuts_down_cleanly;
  ]
