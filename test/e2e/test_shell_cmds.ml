(* Subprocess-level coverage of the shell's maintenance commands: scrub,
   health, stats, trace on|off|dump, gc.  Scripts are piped
   through stdin; assertions are output-shape checks (the counters move
   with unrelated work), never string-exact transcripts. *)

open E2e_util

let shell script =
  with_store @@ fun ~dir:_ ~store ->
  let r = hpjava ~stdin_text:script [ "shell"; store ] in
  expect_ok r;
  r

let scrub_reports_scan_shape () =
  let r = shell "scrub 64\nquit\n" in
  expect_stdout_has r "objects";
  expect_stdout_has r "verified";
  expect_stdout_has r "primed";
  expect_stdout_lacks r "quarantined @"

let health_reports_quarantine_and_retries () =
  let r = shell "health\nquit\n" in
  expect_stdout_has r "scrub:";
  expect_stdout_has r "quarantined: 0";
  expect_stdout_has r "io retries absorbed";
  expect_stdout_has r "retry totals:"

let stats_reports_operation_counters () =
  let r = shell "census\nstats\nquit\n" in
  expect_stdout_has r "operations:";
  expect_stdout_has r "(tracing off)"

let trace_toggles_and_dumps () =
  let r = shell "trace dump\ntrace on\ncensus\nstabilise\ntrace dump\ntrace off\nquit\n" in
  (* first dump: ring empty, with the hint that tracing is off *)
  expect_stdout_has r "trace ring empty (tracing is off";
  expect_stdout_has r "tracing on";
  (* second dump: the stabilise span must be in the ring *)
  expect_stdout_has r "stabilise";
  expect_stdout_has r "tracing off";
  let bad = shell "trace sideways\nquit\n" in
  expect_stdout_has bad "usage: trace on|off|dump"

(* The get-link line of each `stats` in a transcript, in order. *)
let get_link_lines (r : Test_support.Subproc.result) =
  String.split_on_char '\n' r.Test_support.Subproc.stdout
  |> List.filter (fun l -> String.starts_with ~prefix:"get-link" (String.trim l))

let go_fetches_object_links_through_get_link () =
  (* an object link compiles to a getLink call, so the real binary's
     counter moves only once the program runs *)
  with_store @@ fun ~dir ~store ->
  expect_ok (hpjava [ "compile"; store; write_src ~dir "Person.java" person_source ]);
  expect_ok (hpjava [ "new"; store; "Person"; "ann"; "ann" ]);
  let script =
    String.concat "\n"
      [
        "stats";
        "edit Greet";
        "type public class Greet {\\n  public static void main(String[] args) {\\n    \
         System.println(";
        "link root ann";
        "type .getName());\\n  }\\n}\\n";
        "compile";
        "stats";
        "go";
        "stats";
        "quit";
        "";
      ]
  in
  let r = hpjava ~stdin_text:script [ "shell"; store ] in
  expect_ok r;
  expect_stdout_has r "ran Greet.main";
  expect_stdout_has r "ann\n";
  match get_link_lines r with
  | [ line ] ->
    if not (String.ends_with ~suffix:" 1" (String.trim line)) then
      Alcotest.failf "expected one getLink, got %S" line
  | lines -> Alcotest.failf "expected one get-link line (after go), got %d" (List.length lines)

let gc_reports_sweep_counts () =
  let r = shell "gc\nquit\n" in
  expect_stdout_has r "live=";
  expect_stdout_has r "swept="

let maintenance_sequence_keeps_store_healthy () =
  (* The full maintenance pass the macro workload replays, then a
     black-box integrity check of what it left behind. *)
  with_store @@ fun ~dir:_ ~store ->
  let script =
    "scrub 128\nhealth\ntrace on\nstats\ncensus\nstabilise\ntrace dump\ntrace off\n\
     gc\nquit\n"
  in
  let r = hpjava ~stdin_text:script [ "shell"; store ] in
  expect_ok r;
  expect_stdout_has r "quarantined: 0";
  let check = hpjava [ "check"; store ] in
  expect_ok check;
  expect_stdout_has check "integrity ok";
  expect_stdout_has check "0 quarantined"

let unknown_command_is_reported () =
  let r = shell "frobnicate\nquit\n" in
  expect_stdout_has r "unknown command frobnicate"

let suite =
  [
    test "scrub reports scan/verify/prime counts" scrub_reports_scan_shape;
    test "health reports quarantine set and retry counters" health_reports_quarantine_and_retries;
    test "stats reports operation counters" stats_reports_operation_counters;
    test "trace on|off|dump toggles and dumps the span ring" trace_toggles_and_dumps;
    test "go fetches each object link through getLink" go_fetches_object_links_through_get_link;
    test "gc reports live/swept counts" gc_reports_sweep_counts;
    test "maintenance sequence leaves a healthy store" maintenance_sequence_keeps_store_healthy;
    test "unknown command is reported" unknown_command_is_reported;
  ]
