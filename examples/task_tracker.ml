(* Task tracker: a multi-session persistent application whose reports are
   hyper-programs authored in the .hp interchange format.

   Session 1 creates the store, the Task/Tracker classes and some tasks.
   Session 2 (a separate store open) authors a report as hyper-source —
   linking to the tracker through its persistent root — compiles and runs
   it, then marks a task done THROUGH a hyper-program and shows the
   report reflecting the change.  Everything — classes, data, programs —
   lives in the one store file. *)

open Pstore
open Minijava
open Hyperprog

let sources =
  [
    {|public class Task {
  private String title;
  private boolean done;
  private int priority;
  public Task(String title, int priority) {
    this.title = title;
    this.priority = priority;
  }
  public String getTitle() { return title; }
  public boolean isDone() { return done; }
  public void finish() { done = true; }
  public int getPriority() { return priority; }
  public String toString() {
    String mark = "[ ]";
    if (done) { mark = "[x]"; }
    return mark + " p" + priority + " " + title;
  }
}

public class Tracker {
  private java.util.Vector tasks;
  public Tracker() { tasks = new java.util.Vector(); }
  public Task add(String title, int priority) {
    Task t = new Task(title, priority);
    tasks.addElement(t);
    return t;
  }
  public int size() { return tasks.size(); }
  public int openCount() {
    int n = 0;
    for (int i = 0; i < tasks.size(); i++) {
      Task t = (Task) tasks.elementAt(i);
      if (!t.isDone()) { n = n + 1; }
    }
    return n;
  }
  public void report() {
    System.println("tasks (" + openCount() + "/" + tasks.size() + " open):");
    for (int i = 0; i < tasks.size(); i++) {
      System.println("  " + tasks.elementAt(i));
    }
  }
  public Task find(String title) {
    for (int i = 0; i < tasks.size(); i++) {
      Task t = (Task) tasks.elementAt(i);
      if (t.getTitle().equals(title)) { return t; }
    }
    return null;
  }
}
|};
  ]

(* The report program, authored as hyper-source: it links to the tracker
   object itself (not to a name that must be looked up at run time). *)
let report_hp =
  {|//! class: Report
//! link 0: root tracker
public class Report {
  public static void main(String[] args) {
    #<0>.report();
  }
}
|}

(* A second hyper-program that closes a specific task — linking directly
   to the Task object discovered in the store. *)
let finish_hp =
  {|//! class: FinishReview
//! link 0: root task-review
public class FinishReview {
  public static void main(String[] args) {
    #<0>.finish();
    System.println("closed: " + #<0>);
  }
}
|}

let () =
  let store_path = Filename.temp_file "tracker" ".store" in

  (* ---- session 1: create the application and its data ------------------- *)
  let store = Store.create () in
  let vm = Boot.vm_for store in
  vm.Rt.echo <- true;
  Dynamic_compiler.install vm;
  ignore (Jcompiler.compile_and_load vm sources);
  let tracker = Vm.new_instance vm ~cls:"Tracker" ~desc:"()V" [] in
  Store.Session.set_root vm.Rt.session "tracker" tracker;
  let add title priority =
    Vm.call_virtual vm ~recv:tracker ~name:"add" ~desc:"(Ljava.lang.String;I)LTask;"
      [ Rt.jstring vm title; Pvalue.Int (Int32.of_int priority) ]
  in
  ignore (add "write the design" 1);
  let review = add "review the draft" 2 in
  ignore (add "publish" 3);
  Store.Session.set_root vm.Rt.session "task-review" review;
  Store.stabilise ~path:store_path store;
  Printf.printf "session 1: created %d tasks, stabilised\n\n" 3;

  (* ---- session 2: author and run hyper-programs over the live data ------- *)
  let store2 = Store.open_file store_path in
  let vm2 = Boot.vm_for store2 in
  vm2.Rt.echo <- true;
  Dynamic_compiler.install vm2;
  print_endline "session 2: the report hyper-program (authored as .hp source):";
  print_string report_hp;
  let report = Hyper_source.to_storage vm2 report_hp in
  Store.Session.set_root vm2.Rt.session "report" (Pvalue.Ref report);
  print_endline "\n== first report ==";
  ignore (Dynamic_compiler.go vm2 report ~argv:[]);

  print_endline "\n== closing a task through a hyper-program ==";
  let finish = Hyper_source.to_storage vm2 finish_hp in
  ignore (Dynamic_compiler.go vm2 finish ~argv:[]);

  print_endline "\n== second report: the same compiled class sees the change ==";
  Vm.run_main vm2 ~cls:"Report" [];

  (* The report is itself persistent and publishable. *)
  print_endline "\n== the report as hyper-source (print-hp) ==";
  print_string (Hyper_source.of_storage vm2 report);
  Store.stabilise store2;

  (* ---- session 3: everything is still there ------------------------------ *)
  let store3 = Store.open_file store_path in
  let vm3 = Boot.vm_for store3 in
  vm3.Rt.echo <- true;
  Dynamic_compiler.install vm3;
  print_endline "\nsession 3: rerun the persistent report after reopen";
  Vm.run_main vm3 ~cls:"Report" [];
  Sys.remove store_path;
  print_endline "task_tracker: OK"
