(* Deterministic mixed-session scenarios for the end-to-end suite.

   A scenario is a mixed session: several simulated users interleaving
   the whole hpjava surface — init, compile, instantiate, run, browse,
   link-following hyper-programs, class evolution, publishing, GC,
   integrity checks and interactive shell sessions — against ONE store,
   through the real binary as a subprocess (see {!Subproc}).

   Generation consults nothing but the seed, so a scenario replays
   byte-identically: every class source, root name and shell script is a
   pure function of [seed, users, ops].  Any failing run is reproduced
   exactly by re-running with the printed [E2E_SEED=N].

   The player executes a scenario in a sandbox directory, optionally
   SIGKILLing one seed-chosen mutating step mid-stabilise via the
   binary's HPJAVA_KILL_AT_BYTE crash injector, then checks recovery
   (reopen + full integrity check) and asserts the bounded-loss-window
   invariant: every root bound by a previously COMPLETED step must
   survive; only the killed step's effects may be missing. *)

module Subproc = Test_support.Subproc

let sp = Printf.sprintf

(* ---------------------------------------------------------------------- *)
(* Ops                                                                     *)
(* ---------------------------------------------------------------------- *)

type op =
  | Init  (* creates the store and its journal *)
  | Compile of { cls : string; file : string; source : string }
  | Run of { cls : string }
  | New of { cls : string; root : string; arg : string }
  | Browse of { root : string option }
  | Census
  | Roots
  | Source of { cls : string }
  | Gc
  | Check
  | Export_html
  | Run_hp of { cls : string; file : string; source : string }
      (* link-following: a .hp program whose links resolve through the
         registry at compile time, compiled and run with --go *)
  | Print_hp of { root : string }
  | Evolve of { cls : string; file : string; source : string }
  | Shell of { script : string; saves : string list }
  | Sessions of { script : string; saves : string list }
      (* concurrent snapshot sessions racing in one shell process: two
         sessions write an overlapping root, the first committer wins,
         the loser gets a typed conflict and retries under a fresh
         snapshot (see [sessions_shell_script]) *)

type step = { user : int; op : op }
type t = { seed : int; users : int; steps : step list }

let op_class = function
  | Init -> "init"
  | Compile _ -> "compile"
  | Run _ -> "run"
  | New _ -> "new"
  | Browse _ -> "browse"
  | Census -> "census"
  | Roots -> "roots"
  | Source _ -> "source"
  | Gc -> "gc"
  | Check -> "check"
  | Export_html -> "export-html"
  | Run_hp _ -> "run-hp"
  | Print_hp _ -> "print-hp"
  | Evolve _ -> "evolve"
  | Shell _ -> "shell"
  | Sessions _ -> "sessions"

(* Roots the op durably binds once its process exits successfully. *)
let binds_roots = function
  | New { root; _ } -> [ root ]
  | Run_hp { cls; _ } -> [ "hp:" ^ cls ]
  | Shell { saves; _ } | Sessions { saves; _ } -> saves
  | _ -> []

(* Ops that mutate the store (and therefore stabilise on exit): the
   crash injector only makes sense aimed at one of these. *)
let mutates = function
  | Init | Compile _ | Run _ | New _ | Run_hp _ | Evolve _ | Shell _ | Sessions _ | Gc -> true
  | Browse _ | Census | Roots | Source _ | Check | Export_html | Print_hp _ -> false

(* ---------------------------------------------------------------------- *)
(* Source generation (pure functions of user/serial numbers)               *)
(* ---------------------------------------------------------------------- *)

let person_cls u = sp "U%dPerson" u

let person_source u =
  let c = person_cls u in
  sp
    "public class %s {\n\
    \  private String name;\n\
    \  private %s spouse;\n\
    \  public %s(String n) { name = n; }\n\
    \  public %s getSpouse() { return spouse; }\n\
    \  public static void marry(%s a, %s b) { a.spouse = b; b.spouse = a; }\n\
    \  public String toString() { return \"%s(\" + name + \")\"; }\n\
     }\n"
    c c c c c c c

(* The evolved version adds a field and changes behaviour; instances are
   reconstructed in place, so hyper-links keep resolving. *)
let person_source_v2 u =
  let c = person_cls u in
  sp
    "public class %s {\n\
    \  private String name;\n\
    \  private %s spouse;\n\
    \  private String note;\n\
    \  public %s(String n) { name = n; }\n\
    \  public %s getSpouse() { return spouse; }\n\
    \  public static void marry(%s a, %s b) { a.spouse = b; b.spouse = a; }\n\
    \  public String toString() { return \"%s(\" + name + \"+v2)\"; }\n\
     }\n"
    c c c c c c c

let app_source u k =
  sp
    "public class U%dApp%d {\n\
    \  public static int f(int x) { return x * %d + %d; }\n\
    \  public static void main(String[] args) {\n\
    \    System.println(String.valueOf(U%dApp%d.f(%d)));\n\
    \  }\n\
     }\n"
    u k (k + 2) (u + 1) u k (k + 3)

(* A Figure-5-style hyper-program: a method link and two object links,
   authored in the .hp interchange format so the links resolve through
   the registry of the real binary. *)
let marry_hp_source u k ra rb =
  let c = person_cls u in
  sp
    "//! class: U%dMarry%d\n\
     //! link 0: method %s.marry (L%s;L%s;)V\n\
     //! link 1: root %s\n\
     //! link 2: root %s\n\
     public class U%dMarry%d {\n\
    \  public static void main(String[] args) {\n\
    \    #<0>(#<1>, #<2>);\n\
    \  }\n\
     }\n"
    u k c c c ra rb u k

(* An interactive editing session: open an editor, type program text,
   insert hyper-links from specs (the shell's `link` gesture), compile,
   save under a root, run — the paper's Figure 12 workflow, scripted. *)
let marry_shell_script u k ra rb =
  let c = person_cls u in
  String.concat "\n"
    [
      sp "edit U%dSh%d" u k;
      sp "type public class U%dSh%d {\\n  public static void main(String[] args) {\\n    " u k;
      sp "link method %s.marry" c;
      "type (";
      sp "link root %s" ra;
      "type , ";
      sp "link root %s" rb;
      "type );\\n  }\\n}\\n";
      "compile";
      sp "save u%dsh%d" u k;
      "go";
      "census";
      "quit";
      "";
    ]

(* A maintenance session: the PR 2-4 command surfaces. *)
let maintenance_shell_script budget =
  String.concat "\n"
    [
      sp "scrub %d" budget;
      "health";
      "stats";
      "trace on";
      "stabilise";
      "trace dump";
      "trace off";
      "gc";
      "quit";
      "";
    ]

(* A concurrent-sessions race, scripted: session 1 buffers writes to a
   private root and a contended one; session 2 opens against the same
   snapshot lineage, writes the contended root too and commits first;
   session 1's commit must then be refused with a typed conflict naming
   exactly the contended root, and the lost write is retried under a
   fresh snapshot.  Session ids are per-process, so `session use 1` is
   deterministic.  Durable outcome: all three roots bound (the contended
   one holding the FIRST committer's value). *)
let sessions_shell_script u k =
  let r suffix = sp "u%dmv%d%s" u k suffix in
  String.concat "\n"
    [
      "session open";
      sp "bind %s %d" (r "a") (100 + k);
      sp "bind %s %d" (r "c") (900 + k);
      "session open";
      sp "bind %s %d" (r "c") (200 + k);
      sp "bind %s %d" (r "b") (300 + k);
      "session status";
      "stats";
      "commit";
      "session use 1";
      "commit";
      "session open";
      sp "bind %s %d" (r "a") (400 + k);
      "commit";
      "roots";
      "quit";
      "";
    ]

let sessions_op u k =
  Sessions
    {
      script = sessions_shell_script u k;
      saves = [ sp "u%dmv%da" u k; sp "u%dmv%db" u k; sp "u%dmv%dc" u k ];
    }

(* ---------------------------------------------------------------------- *)
(* Generation                                                              *)
(* ---------------------------------------------------------------------- *)

type user_state = {
  mutable roots : string list;  (* person-instance roots, oldest first *)
  mutable next_root : int;
  mutable apps : int;  (* compiled app classes *)
  mutable marries : int;
  mutable shells : int;
  mutable msessions : int;  (* concurrent-session race scripts *)
  mutable evolved : bool;
}

let generate ~seed ~users ~ops =
  let rng = Random.State.make [| 0x6d61_63; seed |] in
  let states =
    Array.init users (fun _ ->
        {
          roots = [];
          next_root = 0;
          apps = 0;
          marries = 0;
          shells = 0;
          msessions = 0;
          evolved = false;
        })
  in
  let steps = ref [] in
  let emit user op = steps := { user; op } :: !steps in
  emit 0 Init;
  for u = 0 to users - 1 do
    emit u
      (Compile { cls = person_cls u; file = sp "U%dPerson.java" u; source = person_source u })
  done;
  let new_person u =
    let st = states.(u) in
    let k = st.next_root in
    st.next_root <- k + 1;
    let root = sp "u%dp%d" u k in
    st.roots <- st.roots @ [ root ];
    New { cls = person_cls u; root; arg = sp "p%d-%d" u k }
  in
  let pick_root rng st = List.nth st.roots (Random.State.int rng (List.length st.roots)) in
  let pick_pair rng st =
    let n = List.length st.roots in
    let i = Random.State.int rng n in
    let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
    (List.nth st.roots i, List.nth st.roots j)
  in
  for _ = 1 to ops do
    let u = Random.State.int rng users in
    let st = states.(u) in
    let op =
      if List.length st.roots < 2 then new_person u
      else begin
        match Random.State.int rng 19 with
        | 0 | 1 -> new_person u
        | 2 | 3 ->
          let k = st.apps in
          st.apps <- k + 1;
          Compile { cls = sp "U%dApp%d" u k; file = sp "U%dApp%d.java" u k; source = app_source u k }
        | 4 | 5 when st.apps > 0 -> Run { cls = sp "U%dApp%d" u (Random.State.int rng st.apps) }
        | 6 | 7 ->
          let k = st.marries in
          st.marries <- k + 1;
          let ra, rb = pick_pair rng st in
          Run_hp
            {
              cls = sp "U%dMarry%d" u k;
              file = sp "U%dMarry%d.hp" u k;
              source = marry_hp_source u k ra rb;
            }
        | 8 when st.marries > 0 ->
          Print_hp { root = sp "hp:U%dMarry%d" u (Random.State.int rng st.marries) }
        | 9 ->
          let k = st.shells in
          st.shells <- k + 1;
          let ra, rb = pick_pair rng st in
          Shell { script = marry_shell_script u k ra rb; saves = [ sp "u%dsh%d" u k ] }
        | 10 ->
          Shell { script = maintenance_shell_script (64 + Random.State.int rng 192); saves = [] }
        | 11 ->
          Browse { root = (if Random.State.bool rng then Some (pick_root rng st) else None) }
        | 12 -> Census
        | 13 -> Roots
        | 14 when not st.evolved ->
          st.evolved <- true;
          Evolve
            { cls = person_cls u; file = sp "U%dPerson_v2.java" u; source = person_source_v2 u }
        | 14 -> Source { cls = person_cls u }
        | 15 -> Gc
        | 16 -> if Random.State.bool rng then Check else Export_html
        | 17 ->
          let k = st.msessions in
          st.msessions <- k + 1;
          sessions_op u k
        | _ ->
          let k = st.marries in
          st.marries <- k + 1;
          let ra, rb = pick_pair rng st in
          Run_hp
            {
              cls = sp "U%dMarry%d" u k;
              file = sp "U%dMarry%d.hp" u k;
              source = marry_hp_source u k ra rb;
            }
      end
    in
    emit u op
  done;
  (* every scenario carries at least one concurrent-sessions race — even
     the smoke slice measures session-commit latency and records a
     first-committer-wins conflict *)
  let st0 = states.(0) in
  let k = st0.msessions in
  st0.msessions <- k + 1;
  emit 0 (sessions_op 0 k);
  (* every scenario ends with the read-back trio, so a play always
     finishes on a whole-store verification *)
  emit 0 Census;
  emit 0 Roots;
  emit 0 Check;
  { seed; users; steps = List.rev !steps }

(* Step indexes the crash injector may target: mutating ops, past the
   initial bootstrap so there is a durable state to recover to. *)
let crash_candidates t =
  List.mapi (fun i s -> (i, s)) t.steps
  |> List.filter (fun (i, s) ->
         i > t.users
         &&
         match s.op with
         | Compile _ | New _ | Run_hp _ | Evolve _ -> true
         | _ -> false)
  |> List.map fst

(* ---------------------------------------------------------------------- *)
(* Playing                                                                 *)
(* ---------------------------------------------------------------------- *)

type exec = {
  index : int;
  step : step;
  result : Subproc.result;
  ok : bool;
}

type crash_report = {
  step_index : int;
  crashed_class : string;  (* op class of the killed step *)
  kill_byte : int;
  killed : bool;  (* false: the kill byte lay beyond the step's writes *)
  quarantined_after : int;
  check_ok : bool;
  lost_roots : string list;  (* durable roots missing after recovery *)
}

type play = {
  scenario : t;
  execs : exec list;  (* chronological *)
  crash : crash_report option;
  commit_conflicts : int;  (* commits refused first-committer-wins *)
}

let failures play = List.filter (fun e -> not e.ok) play.execs

(* Parse "... N quarantined ..." out of `hpjava check` output. *)
let quarantined_of_check out =
  let marker = " quarantined" in
  let pos = ref None in
  let n = String.length out and m = String.length marker in
  for i = 0 to n - m do
    if !pos = None && String.sub out i m = marker then pos := Some i
  done;
  match !pos with
  | None -> -1
  | Some stop ->
    let start = ref stop in
    while !start > 0 && match out.[!start - 1] with '0' .. '9' -> true | _ -> false do
      decr start
    done;
    if !start = stop then -1 else int_of_string (String.sub out !start (stop - !start))

(* The number of "commit conflict:" refusals in a shell transcript. *)
let session_conflicts_of out =
  String.split_on_char '\n' out
  |> List.filter (String.starts_with ~prefix:"commit conflict: session ")
  |> List.length

(* First token of every line: the root names in `hpjava roots` output. *)
let root_names_of out =
  String.split_on_char '\n' out
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | name :: _ when name <> "" -> Some name
         | _ -> None)

let play ?crash_at ?(kill_byte = 256) ~bin ~dir scenario =
  let store = Filename.concat dir "store.hpj" in
  let src = Filename.concat dir "src" in
  let html = Filename.concat dir "html" in
  (try Unix.mkdir src 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write_src file source =
    let path = Filename.concat src file in
    Subproc.write_file path source;
    path
  in
  let argv_of = function
    | Init -> ([ "init"; store ], None)
    | Compile { file; source; _ } -> ([ "compile"; store; write_src file source ], None)
    | Run { cls } -> ([ "run"; store; cls ], None)
    | New { cls; root; arg } -> ([ "new"; store; cls; root; arg ], None)
    | Browse { root = None } -> ([ "browse"; store ], None)
    | Browse { root = Some r } -> ([ "browse"; store; "--root"; r ], None)
    | Census -> ([ "census"; store ], None)
    | Roots -> ([ "roots"; store ], None)
    | Source { cls } -> ([ "source"; store; cls ], None)
    | Gc -> ([ "gc"; store ], None)
    | Check -> ([ "check"; store ], None)
    | Export_html -> ([ "export-html"; store; html ], None)
    | Run_hp { file; source; _ } -> ([ "run-hp"; store; "--go"; write_src file source ], None)
    | Print_hp { root } -> ([ "print-hp"; store; root ], None)
    | Evolve { cls; file; source } -> ([ "evolve"; store; cls; write_src file source ], None)
    | Shell { script; _ } | Sessions { script; _ } -> ([ "shell"; store ], Some script)
  in
  let execs = ref [] in
  let crash = ref None in
  let durable_roots = ref [] in
  List.iteri
    (fun index step ->
      let args, stdin_text = argv_of step.op in
      let crashing = crash_at = Some index in
      let env = if crashing then [ ("HPJAVA_KILL_AT_BYTE", string_of_int kill_byte) ] else [] in
      let result = Subproc.run ~env ?stdin_text ~bin args in
      let killed = Subproc.signalled result = Some Sys.sigkill in
      let ok = if crashing then Subproc.ok result || killed else Subproc.ok result in
      execs := { index; step; result; ok } :: !execs;
      if Subproc.ok result then durable_roots := !durable_roots @ binds_roots step.op;
      if crashing then begin
        (* recovery: the next process to open the store replays the
           journal and must find a fully sound state *)
        let check = Subproc.run ~bin [ "check"; store ] in
        (* an operator session: inspect health and repair anything the
           crash demoted — on a clean recovery, the no-op repair path *)
        ignore (Subproc.run ~stdin_text:"health\nrepair all\nquit\n" ~bin [ "shell"; store ]);
        let roots = Subproc.run ~bin [ "roots"; store ] in
        let present = root_names_of roots.Subproc.stdout in
        let lost = List.filter (fun r -> not (List.mem r present)) !durable_roots in
        crash :=
          Some
            {
              step_index = index;
              crashed_class = op_class step.op;
              kill_byte;
              killed;
              quarantined_after = quarantined_of_check check.Subproc.stdout;
              check_ok = Subproc.ok check && Subproc.contains check.Subproc.stdout "integrity ok";
              lost_roots = lost;
            };
        (* the user whose session died retries the command — it must
           succeed against the recovered store, and it restores the
           state later steps depend on *)
        if killed then begin
          let retry = Subproc.run ?stdin_text ~bin args in
          execs := { index; step; result = retry; ok = Subproc.ok retry } :: !execs;
          if Subproc.ok retry then durable_roots := !durable_roots @ binds_roots step.op
        end
      end)
    scenario.steps;
  let execs = List.rev !execs in
  {
    scenario;
    execs;
    crash = !crash;
    commit_conflicts =
      List.fold_left (fun n e -> n + session_conflicts_of e.result.Subproc.stdout) 0 execs;
  }

(* The one-line replay recipe printed whenever a randomized run fails. *)
let replay_line t =
  (* steps = Init + per-user compiles + ops + the fixed sessions race +
     the final census/roots/check trio *)
  sp "scenario: seed %d, %d users, %d ops; replay with E2E_SEED=%d dune build @e2e" t.seed
    t.users (List.length t.steps - 1 - t.users - 4) t.seed
