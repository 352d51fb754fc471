(* Subprocess-level coverage of the shell's snapshot-session commands:
   session open|use|status, bind, commit, abort — and the stats/health
   views from inside a session with uncommitted buffered writes, which
   must describe the pinned snapshot, never the dirty buffer.  Scripts
   are piped through stdin; assertions are output-shape checks, never
   string-exact transcripts. *)

open E2e_util

let shell script =
  with_store @@ fun ~dir:_ ~store ->
  let r = hpjava ~stdin_text:script [ "shell"; store ] in
  expect_ok r;
  r

let stdout_lines (r : Test_support.Subproc.result) =
  String.split_on_char '\n' r.Test_support.Subproc.stdout

(* Every "live objects: N" line of a transcript, in order. *)
let live_object_lines r =
  List.filter (String.starts_with ~prefix:"live objects:") (stdout_lines r)

let open_bind_commit_roundtrip () =
  let r = shell "session open\nbind answer 42\ncommit\nroots\nquit\n" in
  expect_stdout_has r "session 1 open (epoch ";
  expect_stdout_has r "answer = 42 (buffered in session 1)";
  expect_stdout_has r "committed session 1: 1 op in ";
  expect_stdout_has r " us";
  expect_stdout_has r "answer";
  expect_stdout_has r "42"

let stats_health_reflect_snapshot_not_buffer () =
  (* One direct bind fixes the committed state; then a session buffers
     two more root writes and asks for stats and health.  Both views
     must carry the uncommitted-session banner and report the SAME live
     count as the pre-session stats — the dirty buffer must not leak
     into the counts. *)
  let r =
    shell
      "bind base 1\nstats\nsession open\nbind extra 2\nbind more 3\nstats\nhealth\n\
       abort\nquit\n"
  in
  expect_stdout_has r "session 1 (epoch ";
  expect_stdout_has r "2 buffered ops uncommitted; counts reflect the snapshot";
  (match live_object_lines r with
  | (_ :: _ :: _ as lines) ->
    List.iter
      (fun line ->
        if line <> List.hd lines then
          Alcotest.failf "live-object counts diverged across the session: %S vs %S"
            (List.hd lines) line)
      lines
  | lines ->
    Alcotest.failf "expected at least two live-objects lines, got %d" (List.length lines));
  expect_stdout_has r "aborted session 1: 2 buffered ops discarded"

let first_committer_wins_shape () =
  let r =
    shell
      "session open\nbind c 900\nsession open\nbind c 200\ncommit\nsession use 1\n\
       commit\nroots\nquit\n"
  in
  expect_stdout_has r "committed session 2: 1 op in ";
  expect_stdout_has r "session 1 active (epoch ";
  expect_stdout_has r "commit conflict: session 1 lost (first committer wins); clashes: c";
  (* the roots listing shows the contended root with the FIRST
     committer's value (the loser's 900 appears only in its bind echo) *)
  let root_c =
    (* the roots listing pads name to value with spaces; the bind echoes
       ("c = 900 ...") carry an '=' and must not be mistaken for it *)
    List.filter
      (fun l -> String.starts_with ~prefix:"c " l && not (String.contains l '='))
      (stdout_lines r)
  in
  match root_c with
  | [ line ] ->
    if not (Test_support.Subproc.contains line "200") || Test_support.Subproc.contains line "900"
    then Alcotest.failf "contended root did not keep the winner's value: %S" line
  | _ -> Alcotest.failf "expected exactly one roots line for c, got %d" (List.length root_c)

let status_lists_sessions_and_marks_active () =
  let r =
    shell
      "session status\nsession open\nbind x 1\nsession open\nsession status\n\
       session use 1\nsession status\nsession use 7\nabort\nabort\nquit\n"
  in
  expect_stdout_has r "no session open (direct mode); `session open` starts one";
  expect_stdout_has r "session 1 open (epoch ";
  expect_stdout_has r "1 buffered op";
  expect_stdout_has r "[active]";
  expect_stdout_has r "no open session 7"

let gc_refused_while_session_open () =
  let r = shell "session open\ngc\ncommit\ngc\nquit\n" in
  expect_stdout_has r "refused: Store.gc: open snapshot sessions pin the object graph";
  expect_stdout_has r "committed session 1: 0 ops in ";
  (* with the session closed the sweep runs again *)
  expect_stdout_has r "live=";
  expect_stdout_has r "swept="

let direct_mode_messages () =
  let r = shell "commit\nabort\nbind direct 5\nroots\nquit\n" in
  expect_stdout_has r "no session open; direct-mode writes commit immediately";
  expect_stdout_has r "no session open\n";
  expect_stdout_has r "direct = 5\n";
  expect_stdout_lacks r "buffered in session"

let suite =
  [
    test "session open / bind / commit round-trips a root" open_bind_commit_roundtrip;
    test "stats and health render the snapshot, not the dirty buffer"
      stats_health_reflect_snapshot_not_buffer;
    test "overlapping commits: first committer wins, loser named" first_committer_wins_shape;
    test "session status lists open sessions and marks the active one"
      status_lists_sessions_and_marks_active;
    test "gc is refused while a snapshot session is open" gc_refused_while_session_open;
    test "commit/abort/bind fall back to direct mode without a session" direct_mode_messages;
  ]
