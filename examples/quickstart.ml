(* Quickstart: the paper's MarryExample (Figures 2, 3, 5, 8) end to end.

   1. boot a persistent store and a VM;
   2. compile class Person and create two persistent Person instances;
   3. compose the MarryExample hyper-program with a link to the static
      method Person.marry and links to the two instances;
   4. show the storage form and the generated textual form;
   5. compile and run it (the Go button);
   6. stabilise, reopen the store and show that everything survived. *)

open Pstore
open Minijava
open Hyperprog

let person_source =
  {|public class Person {
  private String name;
  private Person spouse;
  public Person(String n) { name = n; }
  public String getName() { return name; }
  public Person getSpouse() { return spouse; }
  public static void marry(Person a, Person b) {
    a.spouse = b;
    b.spouse = a;
  }
  public String toString() { return "Person(" + name + ")"; }
}
|}

let () =
  let store_path = Filename.temp_file "quickstart" ".store" in
  (* ---- session 1: compose, compile, run ---------------------------------- *)
  let store = Store.create () in
  let vm = Boot.boot_fresh store in
  vm.Rt.echo <- true;
  Dynamic_compiler.install vm;
  ignore (Jcompiler.compile_and_load vm [ person_source ]);
  let new_person name =
    Vm.new_instance vm ~cls:"Person" ~desc:"(Ljava.lang.String;)V" [ Rt.jstring vm name ]
  in
  let vangelis = new_person "vangelis" and mary = new_person "mary" in
  Store.Session.set_root vm.Rt.session "vangelis" vangelis;
  Store.Session.set_root vm.Rt.session "mary" mary;
  let v_oid = match vangelis with Pvalue.Ref o -> o | _ -> assert false in
  let m_oid = match mary with Pvalue.Ref o -> o | _ -> assert false in

  (* The Figure 2 hyper-program: the text holds everything except the
     three links; the links carry their own positions (Figure 5). *)
  let text =
    "public class MarryExample {\n  public static void main(String[] args) {\n    (, );\n  }\n}\n"
  in
  (* offset of the "(, );" call skeleton in the text above *)
  let call_pos =
    let pattern = "(, );" in
    let rec find i =
      if i + String.length pattern > String.length text then failwith "pattern not found"
      else if String.sub text i (String.length pattern) = pattern then i
      else find (i + 1)
    in
    find 0
  in
  let links =
    [
      {
        Storage_form.link =
          Hyperlink.L_static_method { cls = "Person"; name = "marry"; desc = "(LPerson;LPerson;)V" };
        label = "Person.marry";
        pos = call_pos;
      };
      { Storage_form.link = Hyperlink.L_object v_oid; label = "vangelis"; pos = call_pos + 1 };
      { Storage_form.link = Hyperlink.L_object m_oid; label = "mary"; pos = call_pos + 3 };
    ]
  in
  let hp = Storage_form.create vm ~class_name:"MarryExample" ~text ~links in
  Store.Session.set_root vm.Rt.session "marry-example" (Pvalue.Ref hp);

  print_endline "== storage form ==";
  List.iter
    (fun (s : Storage_form.link_spec) ->
      Format.printf "  link @%d %S = %a@." s.Storage_form.pos s.Storage_form.label
        Hyperlink.pp s.Storage_form.link)
    (Storage_form.links vm hp);

  print_endline "\n== textual form (Figure 8) ==";
  print_string (Dynamic_compiler.generate_textual_form vm hp);

  print_endline "\n== Go ==";
  let principal = Dynamic_compiler.go vm hp ~argv:[] in
  Printf.printf "ran %s.main\n" principal;
  let spouse = Vm.call_virtual vm ~recv:vangelis ~name:"getSpouse" ~desc:"()LPerson;" [] in
  Printf.printf "vangelis.getSpouse() = %s\n" (Vm.to_string vm spouse);

  Store.stabilise ~path:store_path store;
  Printf.printf "\nstabilised %d objects to %s\n" (Store.size store) store_path;

  (* ---- session 2: reopen and check everything survived -------------------- *)
  let store2 = Store.open_file store_path in
  let vm2 = Boot.vm_for store2 in
  Dynamic_compiler.install vm2;
  let vangelis2 =
    match Store.Session.root vm2.Rt.session "vangelis" with
    | Some v -> v
    | None -> failwith "root lost"
  in
  let spouse2 = Vm.call_virtual vm2 ~recv:vangelis2 ~name:"getSpouse" ~desc:"()LPerson;" [] in
  Printf.printf "after reopen: vangelis.getSpouse() = %s\n" (Vm.to_string vm2 spouse2);
  (match Store.Session.root vm2.Rt.session "marry-example" with
  | Some (Pvalue.Ref hp2) ->
    Printf.printf "hyper-program survived: class %s, %d links, uid %d\n"
      (Storage_form.class_name vm2 hp2)
      (List.length (Storage_form.links vm2 hp2))
      (Storage_form.uid vm2 hp2)
  | _ -> failwith "hyper-program lost");
  Sys.remove store_path;
  print_endline "quickstart: OK"
