(* Alcotest-flavoured wrappers over {!Subproc}: every E2E suite drives
   the real bin/hpjava binary through these, never the in-process APIs —
   the point of the E2E layer is that it can only observe what a user at
   a prompt could. *)

let bin = lazy (Subproc.locate ())

let hpjava ?env ?stdin_text ?timeout_s args =
  Subproc.run ?env ?stdin_text ?timeout_s ~bin:(Lazy.force bin) args

(* -- assertions ------------------------------------------------------------ *)

let expect_ok (r : Subproc.result) =
  if not (Subproc.ok r) then
    Alcotest.failf "expected success:\n%s" (Subproc.describe r)

(* Any nonzero exit is a correct failure report; a signal or a zero exit
   is not.  [stderr_has] additionally pins the one-line message. *)
let expect_fail ?stderr_has (r : Subproc.result) =
  (match Subproc.exit_code r with
  | Some 0 -> Alcotest.failf "expected a nonzero exit:\n%s" (Subproc.describe r)
  | Some _ -> ()
  | None -> Alcotest.failf "expected a nonzero exit, not a signal:\n%s" (Subproc.describe r));
  if String.trim r.Subproc.stderr = "" then
    Alcotest.failf "failure carried no stderr message:\n%s" (Subproc.describe r);
  match stderr_has with
  | Some needle when not (Subproc.contains r.Subproc.stderr needle) ->
    Alcotest.failf "stderr does not mention %S:\n%s" needle (Subproc.describe r)
  | _ -> ()

let expect_killed ~signal (r : Subproc.result) =
  match Subproc.signalled r with
  | Some s when s = signal -> ()
  | _ -> Alcotest.failf "expected death by signal %d:\n%s" signal (Subproc.describe r)

let expect_stdout_has (r : Subproc.result) needle =
  if not (Subproc.contains r.Subproc.stdout needle) then
    Alcotest.failf "stdout does not mention %S:\n%s" needle (Subproc.describe r)

let expect_stdout_lacks (r : Subproc.result) needle =
  if Subproc.contains r.Subproc.stdout needle then
    Alcotest.failf "stdout unexpectedly mentions %S:\n%s" needle (Subproc.describe r)
