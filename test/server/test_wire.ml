(* Well-formed-client behaviour against a live server: handshake
   gating, the two-client commit race with the typed conflict and the
   immediate retry, K clients contending one root, and the read-only
   HTTP dashboard sharing the socket — including the hostile-source
   escaping regression. *)

open Server_util

let response_label = function
  | Typed r -> Protocol.describe_response r
  | Hung_up -> "hangup"
  | Silent -> "silence"
  | Unframed m -> m

let expect_ok_text c req =
  match Client.rpc c req with
  | Protocol.Ok_text text -> text
  | other -> Alcotest.failf "expected ok: %s" (Protocol.describe_response other)

(* -- handshake gating -------------------------------------------------------- *)

let test_hello_gating () =
  with_server @@ fun srv ->
  (* any request before hello is refused with the auth code *)
  let fd = dial srv.socket in
  send_raw fd (Frame.encode (Protocol.encode_request Protocol.Stats));
  (match read_answer fd with
  | Typed (Protocol.Refused { code; _ }) when code = Protocol.code_auth -> ()
  | other -> Alcotest.failf "pre-hello stats: %s" (response_label other));
  Unix.close fd;
  (* a second hello on an authenticated connection is a protocol error *)
  let c = Client.connect (Client.unix_addr srv.socket) in
  (match
     Client.rpc c (Protocol.Hello { version = Protocol.version; password = "passwd" })
   with
  | Protocol.Refused { code; _ } when code = Protocol.code_proto -> ()
  | other -> Alcotest.failf "second hello: %s" (Protocol.describe_response other));
  (* and the connection still works afterwards *)
  let stats = expect_ok_text c Protocol.Stats in
  check_bool "stats mention sessions" true (contains stats "open sessions:");
  check_bool "stats report the MVCC tables" true (contains stats "\nchain entries: ");
  Client.close c

(* -- the acceptance race ----------------------------------------------------- *)

let test_two_client_race () =
  with_server @@ fun srv ->
  let c1 = Client.connect (Client.unix_addr srv.socket) in
  let c2 = Client.connect (Client.unix_addr srv.socket) in
  check_bool "distinct sessions" true (Client.session c1 <> Client.session c2);
  (* both edit the same root under their own snapshots *)
  let a1 = expect_ok_text c1 (Protocol.Edit { root = "shared"; source = hyper_source ~cls:"RaceA" 1 }) in
  ignore (expect_ok_text c2 (Protocol.Edit { root = "shared"; source = hyper_source ~cls:"RaceB" 2 }));
  check_bool "edit is buffered, not published" true (contains a1 "commit to publish");
  (* first committer wins... *)
  let committed = expect_ok_text c1 Protocol.Commit in
  check_bool "commit names its session" true (contains committed "committed session");
  (* ...the second gets the typed conflict naming the clashing root *)
  (match Client.rpc c2 Protocol.Commit with
  | Protocol.Conflict { session; keys; _ } ->
    check_int "conflict names the loser" (Client.session c2) session;
    check_bool "conflict names the root" true (List.mem "shared" keys)
  | other -> Alcotest.failf "expected a conflict, got %s" (Protocol.describe_response other));
  (* the server already opened a fresh snapshot: retry immediately *)
  let retried =
    expect_ok_text c2 (Protocol.Edit { root = "shared"; source = hyper_source ~cls:"RaceB2" 3 })
  in
  let uid = uid_of_edit_answer retried in
  ignore (expect_ok_text c2 Protocol.Commit);
  (* the retried edit is now the published binding *)
  let root = expect_ok_text c1 (Protocol.Browse (Protocol.Root "shared")) in
  check_bool "retry landed" true (contains root "shared = ");
  let programs = expect_ok_text c1 (Protocol.Browse Protocol.Programs) in
  check_bool "retried program is live" true (contains programs (Printf.sprintf "hp %d" uid));
  Client.close c1;
  Client.close c2

(* -- K clients on one root --------------------------------------------------- *)

(* Every round, K clients edit the same root under the snapshots pinned
   after the previous round, then commit in turn: the first wins and
   every later one gets the typed conflict (and a fresh snapshot), so
   each round yields K - 1 conflicts.  Browses and link follows between
   rounds ride along; no request may be refused. *)
let test_k_clients_contend () =
  with_server @@ fun srv ->
  let k = 4 and rounds = 3 in
  let conns = List.init k (fun _ -> Client.connect (Client.unix_addr srv.socket)) in
  let conflicts = ref 0 and refusals = ref [] in
  let rpc c req =
    let answer = Client.rpc c req in
    (match answer with
    | Protocol.Refused _ -> refusals := Protocol.describe_response answer :: !refusals
    | _ -> ());
    answer
  in
  let link_target = ref None in
  for round = 0 to rounds - 1 do
    List.iteri
      (fun i c ->
        let source = hyper_source ~cls:(Printf.sprintf "Net%d_%d" i round) ((i * 1000) + round) in
        match rpc c (Protocol.Edit { root = "shared"; source }) with
        | Protocol.Ok_text text when !link_target = None ->
          link_target := Some (uid_of_edit_answer text)
        | _ -> ())
      conns;
    List.iter
      (fun c -> match rpc c Protocol.Commit with Protocol.Conflict _ -> incr conflicts | _ -> ())
      conns;
    List.iter
      (fun c ->
        ignore (rpc c (Protocol.Browse Protocol.Roots));
        Option.iter (fun hp -> ignore (rpc c (Protocol.Get_link { hp; link = 0 }))) !link_target)
      conns
  done;
  List.iter Client.close conns;
  if !refusals <> [] then
    Alcotest.failf "%d requests refused: %s" (List.length !refusals)
      (String.concat "; " (List.rev !refusals));
  check_bool
    (Printf.sprintf "at least %d conflicts (saw %d)" (rounds * (k - 1)) !conflicts)
    true
    (!conflicts >= rounds * (k - 1))

(* -- typed errors for honest mistakes ---------------------------------------- *)

let test_typed_errors () =
  with_server @@ fun srv ->
  let c = Client.connect (Client.unix_addr srv.socket) in
  (match Client.rpc c (Protocol.Browse (Protocol.Root "nonexistent")) with
  | Protocol.Refused { code; _ } when code = Protocol.code_not_found -> ()
  | other -> Alcotest.failf "missing root: %s" (Protocol.describe_response other));
  (match Client.rpc c (Protocol.Get_link { hp = 0; link = 0 }) with
  | Protocol.Refused { code; _ }
    when code = Protocol.code_not_found || code = Protocol.code_broken_link -> ()
  | other -> Alcotest.failf "missing link: %s" (Protocol.describe_response other));
  (match
     Client.rpc c
       (Protocol.Edit
          {
            root = "r";
            source = "//! class: Bad\n//! link 0: object nowhere\npublic class Bad {\n}\n";
          })
   with
  | Protocol.Refused { code; _ } when code = Protocol.code_bad_source -> ()
  | other -> Alcotest.failf "unparseable source: %s" (Protocol.describe_response other));
  (match Client.rpc c (Protocol.Compile { source = "public class Broken {" }) with
  | Protocol.Refused { code; _ } when code = Protocol.code_compile -> ()
  | other -> Alcotest.failf "compile error: %s" (Protocol.describe_response other));
  (* after all those refusals the connection still serves *)
  ignore (expect_ok_text c Protocol.Health);
  Client.close c

(* -- the dashboard ------------------------------------------------------------ *)

let publish c ~cls ~comment n =
  let uid =
    uid_of_edit_answer
      (expect_ok_text c (Protocol.Edit { root = "shared"; source = hyper_source ~cls ~comment n }))
  in
  ignore (expect_ok_text c Protocol.Commit);
  uid

let test_dashboard () =
  with_server @@ fun srv ->
  let c = Client.connect (Client.unix_addr srv.socket) in
  let uid = publish c ~cls:"Dash" ~comment:"plain" 41 in
  let index = http_get srv.socket "/" in
  check_bool "index is http" true (contains index "HTTP/1.0 200");
  check_bool "index lists the program" true (contains index "Dash");
  let page = http_get srv.socket (Printf.sprintf "/hp/%d" uid) in
  check_bool "program page serves" true (contains page "HTTP/1.0 200");
  check_bool "program page shows the class" true (contains page "Dash");
  check_bool "program page links the link" true
    (contains page (Printf.sprintf "/hp/%d/link/0" uid));
  let link = http_get srv.socket (Printf.sprintf "/hp/%d/link/0" uid) in
  check_bool "link page serves" true (contains link "HTTP/1.0 200");
  check_bool "link page shows the value" true (contains link "value:");
  let missing = http_get srv.socket "/no/such/page" in
  check_bool "unknown path is 404" true (contains missing "404");
  let missing_hp = http_get srv.socket "/hp/99999" in
  check_bool "unknown program is 404" true (contains missing_hp "404");
  Client.close c

(* A hyper-source whose text carries an active-content payload: the
   dashboard must serve it inert.  This is the regression test for the
   Html_export escaping fix. *)
let test_dashboard_escapes_hostile_source () =
  with_server @@ fun srv ->
  let c = Client.connect (Client.unix_addr srv.socket) in
  let uid =
    publish c ~cls:"Evil" ~comment:"<script>alert(document.cookie)</script> \"quoted\"" 7
  in
  let page = http_get srv.socket (Printf.sprintf "/hp/%d" uid) in
  check_bool "page serves" true (contains page "HTTP/1.0 200");
  check_bool "script tag is escaped" true (contains page "&lt;script&gt;");
  check_bool "no live script tag" false (contains page "<script>");
  check_bool "quotes are escaped" true (contains page "&quot;quoted&quot;");
  Client.close c

(* A page that raises answers 500 and the server goes on serving: the
   program's own HyperProgram record is quarantined, so its page cannot
   be rendered at all. *)
let test_page_failure_answers_500 () =
  let uid = ref (-1) in
  with_server ~prepare:(fun store -> uid := damage_marry store ~damaged:`Program) @@ fun srv ->
  let page = http_get srv.socket (Printf.sprintf "/hp/%d" !uid) in
  check_bool "the page answers 500" true (contains page "HTTP/1.0 500");
  let c = Client.connect (Client.unix_addr srv.socket) in
  check_bool "a wire hello still answers" true
    (contains (expect_ok_text c Protocol.Stats) "open sessions:");
  Client.close c;
  let index = http_get srv.socket "/" in
  check_bool "the index still serves" true (contains index "HTTP/1.0 200");
  check_bool "the index names the damage" true (contains index "record corrupt (test)");
  check_bool "server alive" true (server_alive srv)

let suite =
  ( "wire",
    [
      test "hello gating" test_hello_gating;
      test "two clients race one root" test_two_client_race;
      test "four clients contend one root for three rounds" test_k_clients_contend;
      test "typed errors leave the connection serving" test_typed_errors;
      test "dashboard serves live pages" test_dashboard;
      test "dashboard escapes hostile source" test_dashboard_escapes_hostile_source;
      test "a failing page answers 500 and the server serves on" test_page_failure_answers_500;
    ] )
