(* Schema evolution by linguistic reflection (the paper's Section 7
   claim): evolve a populated persistent class — add a field, change a
   field's type — while the store is live, run a converter compiled on
   the fly, and show that hyper-links to evolved instances stay valid
   because oids are preserved. *)

open Pstore
open Minijava
open Hyperprog

let employee_v1 =
  {|public class Employee {
  private String name;
  private int salary;
  public Employee(String name, int salary) {
    this.name = name;
    this.salary = salary;
  }
  public String getName() { return name; }
  public int getSalary() { return salary; }
  public String toString() { return name + ":" + salary; }
}
|}

(* v2: salary widens to long, a grade field appears. *)
let employee_v2 =
  {|public class Employee {
  private String name;
  private long salary;
  private int grade;
  public Employee(String name, long salary) {
    this.name = name;
    this.salary = salary;
  }
  public String getName() { return name; }
  public long getSalary() { return salary; }
  public int getGrade() { return grade; }
  public void setGrade(int g) { grade = g; }
  public String toString() { return name + ":" + salary + "/g" + grade; }
}
|}

(* The converter is itself compiled by linguistic reflection at evolution
   time; it derives the new field from the migrated data. *)
let converter =
  {|public class EmployeeConverter {
  public static void convert(Employee e) {
    if (e.getSalary() >= 50000L) { e.setGrade(2); } else { e.setGrade(1); }
  }
}
|}

let () =
  let store = Store.create () in
  let vm = Boot.boot_fresh store in
  Dynamic_compiler.install vm;
  ignore (Jcompiler.compile_and_load vm [ employee_v1 ]);

  let new_employee name salary =
    Vm.new_instance vm ~cls:"Employee"
      ~desc:"(Ljava.lang.String;I)V"
      [ Rt.jstring vm name; Pvalue.Int (Int32.of_int salary) ]
  in
  let staff = List.map (fun (n, s) -> new_employee n s) [ ("ada", 60000); ("alan", 45000); ("grace", 52000) ] in
  let arr =
    Store.Session.alloc_array vm.Rt.session "LEmployee;"
      (Array.of_list staff)
  in
  Store.Session.set_root vm.Rt.session "staff" (Pvalue.Ref arr);

  (* A hyper-program linking directly to one employee. *)
  let ada_oid = match List.hd staff with Pvalue.Ref o -> o | _ -> assert false in
  let text =
    "public class Report {\n  public static void main(String[] args) {\n    System.println(.toString());\n  }\n}\n"
  in
  let dot =
    let rec find i = if String.sub text i 1 = "." && text.[i+1] = 't' then i else find (i + 1) in
    find 0
  in
  let hp =
    Storage_form.create vm ~class_name:"Report" ~text
      ~links:[ { Storage_form.link = Hyperlink.L_object ada_oid; label = "ada"; pos = dot } ]
  in
  Store.Session.set_root vm.Rt.session "report" (Pvalue.Ref hp);

  print_endline "== before evolution ==";
  ignore (Dynamic_compiler.go vm hp ~argv:[]);
  print_string (Rt.take_output vm);

  (* Evolve while the data is live. *)
  let result =
    Evolution.evolve vm ~class_name:"Employee" ~new_source:employee_v2 ~converter ()
  in
  Printf.printf "\nevolved %s: %d instances reconstructed (archived as %s)\n"
    result.Evolution.class_name result.Evolution.instances_updated
    result.Evolution.old_version_blob;

  (* The SAME hyper-program still runs: its link captured the oid, the
     instance evolved in place.  Only the source (already compiled into a
     class) keeps working; recompiling it exercises the new schema. *)
  print_endline "\n== after evolution: rerun the compiled report ==";
  ignore (Vm.run_main vm ~cls:"Report" []);
  print_string (Rt.take_output vm);

  print_endline "\n== after evolution: recompile the hyper-program and run ==";
  (* Evolve the program too: in this case the source is unchanged; the
     dynamic compiler just recompiles it against the new schema. *)
  ignore (Dynamic_compiler.go vm hp ~argv:[]);
  print_string (Rt.take_output vm);

  print_endline "\n== all staff after conversion ==";
  List.iter
    (fun e -> Printf.printf "  %s\n" (Vm.to_string vm e))
    staff;

  (* Version archive: the old class file (with its source) is retained. *)
  let versions = Evolution.archived_versions vm "Employee" in
  Printf.printf "\narchived versions of Employee: %d\n" (List.length versions);
  List.iter
    (fun (v, cf) ->
      Printf.printf "  v%d: %d fields, source retained: %b\n" v
        (List.length cf.Classfile.cf_fields)
        (cf.Classfile.cf_source <> None))
    versions;
  print_endline "evolution_demo: OK"
