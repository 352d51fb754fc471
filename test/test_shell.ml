(* The scriptable shell: drive a whole session through the command
   language and check the store afterwards. *)

open Pstore
open Minijava
open Helpers

(* Run a shell script over a fresh store file; returns (stdout, path).
   The caller removes the file. *)
let run_script ?(keep = false) script =
  let store_path = Filename.temp_file "shell" ".hpj" in
  Sys.remove store_path;
  (* seed the store with Person + two roots *)
  let store = Store.create () in
  let vm = Boot.boot_fresh store in
  Hyperprog.Dynamic_compiler.install vm;
  compile_into vm [ person_source ];
  Store.Session.set_root (Store.default_session store) "vangelis" (new_person vm "vangelis");
  Store.Session.set_root (Store.default_session store) "mary" (new_person vm "mary");
  Store.stabilise ~path:store_path store;
  (* feed the script through a real channel *)
  let script_path = Filename.temp_file "script" ".txt" in
  let oc = open_out script_path in
  output_string oc script;
  close_out oc;
  let ic = open_in script_path in
  (* capture stdout *)
  let stdout_backup = Unix.dup Unix.stdout in
  let out_path = Filename.temp_file "shellout" ".txt" in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 out_fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 stdout_backup Unix.stdout;
      Unix.close stdout_backup;
      Unix.close out_fd;
      close_in ic;
      Sys.remove script_path)
    (fun () -> Hyperui.Shell.run ~store_path ~input:ic ~echo:false);
  let ic2 = open_in out_path in
  let output = really_input_string ic2 (in_channel_length ic2) in
  close_in ic2;
  Sys.remove out_path;
  if not keep then Sys.remove store_path;
  (output, store_path)

let marry_script =
  "edit MarryExample\n\
   type public class MarryExample {\\n  public static void main(String[] args) {\\n    \n\
   link method Person.marry\n\
   type (\n\
   link root vangelis\n\
   type , \n\
   link root mary\n\
   type );\\n  }\\n}\\n\n\
   show\n\
   go\n\
   save marry\n\
   quit\n"

let full_composition () =
  let output, store_path = run_script ~keep:true marry_script in
  Fun.protect
    ~finally:(fun () -> Sys.remove store_path)
    (fun () ->
      check_bool "editor opened" true (contains output "editor 1 open");
      check_bool "buttons rendered" true (contains output "[Person.marry]");
      check_bool "ran" true (contains output "ran MarryExample.main");
      check_bool "saved" true (contains output "saved as root marry");
      (* the store on disk reflects everything: marriage + saved program *)
      let store = Store.open_file store_path in
      let vm = Boot.vm_for store in
      let vangelis = Option.get (Store.Session.root (Store.default_session store) "vangelis") in
      let spouse = Vm.call_virtual vm ~recv:vangelis ~name:"getSpouse" ~desc:"()LPerson;" [] in
      check_bool "marriage persisted" true (spouse <> Pvalue.Null);
      match Store.Session.root (Store.default_session store) "marry" with
      | Some (Pvalue.Ref hp) ->
        check_output "program persisted" "MarryExample"
          (Hyperprog.Storage_form.class_name vm hp)
      | _ -> Alcotest.fail "saved hyper-program missing")

let browse_and_insert_by_row () =
  let script =
    "edit T\n\
     type public class T { Object o = ; }\n\
     cursor 0 28\n\
     browse root vangelis\n\
     row 1 loc\n\
     compile\n\
     quit\n"
  in
  let output, _ = run_script script in
  check_bool "location link inserted" true (contains output "inserted field");
  check_bool "compiled" true (contains output "compiled T")

let errors_are_reported () =
  let script = "edit Bad\ntype public class Bad { int x = \"zzz\"; }\ncompile\nquit\n" in
  let output, _ = run_script script in
  check_bool "error surfaced" true (contains output "error:");
  check_bool "in hyper-program terms" true (contains output "in the hyper-program")

let scrub_and_health_report () =
  let script = "scrub 100000\nhealth\nquit\n" in
  let output, _ = run_script script in
  check_bool "scrub reports a scan" true (contains output "scanned");
  check_bool "big budget drains the pass" true (contains output "(pass complete)");
  check_bool "health shows the quarantine" true (contains output "quarantined: 0");
  check_bool "health shows store retries" true (contains output "io retries absorbed");
  check_bool "health shows retry totals" true (contains output "retry totals:")

let scrub_rejects_a_bad_budget () =
  let output, _ = run_script "scrub 0\nquit\n" in
  check_bool "a zero budget is refused" true (contains output "scrub: bad budget")

let unknown_commands_are_safe () =
  let script = "frobnicate\nhelp\nroots\nquit\n" in
  let output, _ = run_script script in
  check_bool "unknown reported" true (contains output "unknown command frobnicate");
  check_bool "help shown" true (contains output "commands:");
  check_bool "roots listed" true (contains output "vangelis")

let suite =
  [
    test "full composition through the shell" full_composition;
    test "browse and insert by row" browse_and_insert_by_row;
    test "compile errors are reported" errors_are_reported;
    test "scrub and health report" scrub_and_health_report;
    test "scrub refuses a bad budget" scrub_rejects_a_bad_budget;
    test "unknown commands are safe" unknown_commands_are_safe;
  ]

let props = []
