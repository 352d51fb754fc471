(* The tentpole E2E suite: seeded mixed-session scenarios played against
   the real hpjava binary, clean and with a SIGKILL mid-stabilise.

   Every scenario is a pure function of its seed; a failing run prints
   the exact replay recipe.  E2E_SEED=N pins the seed; E2E_FULL=1 (the
   @e2e-full alias) widens the sweep beyond the time-boxed default. *)

open E2e_util
module Subproc = Test_support.Subproc

let seed_of_env default =
  match Sys.getenv_opt "E2E_SEED" with
  | Some s -> (match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let play ?crash_at ?kill_byte scenario =
  with_dir @@ fun dir ->
  Scenario.play ?crash_at ?kill_byte ~bin:(Lazy.force bin) ~dir scenario

let fail_play scenario fmt =
  Format.kasprintf
    (fun msg -> Alcotest.failf "%s\n%s" msg (Scenario.replay_line scenario))
    fmt

let assert_clean (p : Scenario.play) =
  match Scenario.failures p with
  | [] -> ()
  | e :: _ ->
    fail_play p.Scenario.scenario "step %d (%s) failed:\n%s" e.Scenario.index
      (Scenario.op_class e.Scenario.step.Scenario.op)
      (Subproc.describe e.Scenario.result)

(* The final Check step closes every scenario; its stdout is the
   whole-store verdict. *)
let assert_final_integrity (p : Scenario.play) =
  match List.rev p.Scenario.execs with
  | last :: _ ->
    if not (Subproc.contains last.Scenario.result.Subproc.stdout "integrity ok") then
      fail_play p.Scenario.scenario "final check did not report integrity ok:\n%s"
        (Subproc.describe last.Scenario.result)
  | [] -> Alcotest.fail "scenario played no steps"

(* Every scenario embeds a two-session race on a shared root, so a clean
   play must record at least one first-committer-wins conflict. *)
let run_clean ~seed ~users ~ops =
  let scenario = Scenario.generate ~seed ~users ~ops in
  let p = play scenario in
  assert_clean p;
  if p.Scenario.commit_conflicts < 1 then
    fail_play scenario "expected at least one session commit conflict, saw none";
  assert_final_integrity p

(* A crash play must observe the SIGKILL, recover to full integrity with
   an empty quarantine set, and lose nothing a completed step bound. *)
let run_crash ?prefer ~seed ~users ~ops ~kill_byte () =
  let scenario = Scenario.generate ~seed ~users ~ops in
  let candidates = Scenario.crash_candidates scenario in
  if candidates = [] then fail_play scenario "scenario has no crash candidates";
  (* [prefer] narrows the target to op classes whose stabilise writes are
     large enough for a deep kill byte (a lone `new` appends a small
     journal delta; a compile writes classfile blobs) *)
  let candidates =
    match prefer with
    | None -> candidates
    | Some classes -> begin
      match
        List.filter
          (fun i ->
            let s = List.nth scenario.Scenario.steps i in
            List.mem (Scenario.op_class s.Scenario.op) classes)
          candidates
      with
      | [] -> candidates
      | narrowed -> narrowed
    end
  in
  let crash_at = List.nth candidates (seed mod List.length candidates) in
  let p = play ~crash_at ~kill_byte scenario in
  assert_clean p;
  match p.Scenario.crash with
  | None -> fail_play scenario "crash injector armed at step %d but no report" crash_at
  | Some c ->
    if not c.Scenario.killed then
      fail_play scenario "kill byte %d never fired during step %d (%s)" kill_byte crash_at
        c.Scenario.crashed_class;
    if not c.Scenario.check_ok then
      fail_play scenario "post-crash integrity check failed (step %d, byte %d)" crash_at
        kill_byte;
    if c.Scenario.quarantined_after <> 0 then
      fail_play scenario "%d objects quarantined after recovery (step %d, byte %d)"
        c.Scenario.quarantined_after crash_at kill_byte;
    if c.Scenario.lost_roots <> [] then
      fail_play scenario "bounded loss window violated: completed roots lost: %s"
        (String.concat ", " c.Scenario.lost_roots);
    assert_final_integrity p

let mixed_session_clean () = run_clean ~seed:(seed_of_env 7) ~users:2 ~ops:12

let mixed_session_crash () =
  run_crash ~seed:(seed_of_env 7) ~users:2 ~ops:10 ~kill_byte:48 ()

let crash_late_byte () =
  (* a kill budget deep into the stabilise write, so the journal record
     is torn mid-payload rather than at its first byte; aimed at a
     compile-class step, whose stabilise writes span hundreds of bytes *)
  run_crash ~prefer:[ "compile"; "run-hp"; "evolve" ] ~seed:(seed_of_env 11) ~users:2
    ~ops:10 ~kill_byte:300 ()

let full_sweep () =
  if not (full_mode ()) then ()
  else
    for seed = 1 to 6 do
      run_clean ~seed ~users:3 ~ops:30;
      run_crash ~seed ~users:2 ~ops:16 ~kill_byte:(32 + (seed * 13 mod 64)) ();
      run_crash ~prefer:[ "compile"; "run-hp"; "evolve" ] ~seed ~users:2 ~ops:16
        ~kill_byte:(200 + (seed * 97 mod 300)) ()
    done

let suite =
  [
    test "mixed session plays clean with final integrity" mixed_session_clean;
    test "SIGKILL mid-stabilise recovers with zero loss" mixed_session_crash;
    test "SIGKILL deep in the stabilise write also recovers" crash_late_byte;
    test "full sweep (E2E_FULL=1 only)" full_sweep;
  ]
