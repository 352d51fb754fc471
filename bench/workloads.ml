(* Workload generators for the benchmark harness: synthetic programs,
   hyper-programs with parameterised link counts, and populated stores. *)

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
  public static void marry(Person a, Person b) { a.spouse = b; b.spouse = a; }
  public String toString() { return "Person(" + name + ")"; }
}
|}

let fresh_vm () =
  let store = Store.create () in
  let vm = Boot.boot_fresh store in
  Dynamic_compiler.install vm;
  (store, vm)

let vm_with_persons n =
  let store, vm = fresh_vm () in
  ignore (Jcompiler.compile_and_load vm [ person_source ]);
  let persons =
    List.init n (fun i ->
        let p =
          Vm.new_instance vm ~cls:"Person" ~desc:"(Ljava.lang.String;)V"
            [ Rt.jstring vm (Printf.sprintf "p%d" i) ]
        in
        Store.Session.set_root vm.Rt.session (Printf.sprintf "p%d" i) p;
        p)
  in
  (store, vm, persons)

let oid_of = function
  | Pvalue.Ref oid -> oid
  | _ -> invalid_arg "oid_of"

(* The Figure 2 MarryExample hyper-program. *)
let marry_example vm p1 p2 =
  let text =
    "public class MarryExample {\n  public static void main(String[] args) {\n    (, );\n  }\n}\n"
  in
  let base =
    let pat = "(, );" in
    let rec find i = if String.sub text i (String.length pat) = pat then i else find (i + 1) in
    find 0
  in
  Storage_form.create vm ~class_name:"MarryExample" ~text
    ~links:
      [
        {
          Storage_form.link =
            Hyperlink.L_static_method
              { cls = "Person"; name = "marry"; desc = "(LPerson;LPerson;)V" };
          label = "Person.marry";
          pos = base;
        };
        { Storage_form.link = Hyperlink.L_object (oid_of p1); label = "a"; pos = base + 1 };
        { Storage_form.link = Hyperlink.L_object (oid_of p2); label = "b"; pos = base + 3 };
      ]

(* A synthetic hyper-program with [links] object links spread through a
   method body of [lines] lines. *)
let synthetic_hyper_program vm ~name ~lines ~links =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "public class %s {\n" name);
  Buffer.add_string buf "  public static int f() {\n    int acc = 0;\n";
  for i = 0 to lines - 1 do
    Buffer.add_string buf (Printf.sprintf "    acc = acc + %d;\n" i)
  done;
  let link_positions = ref [] in
  for i = 0 to links - 1 do
    Buffer.add_string buf "    Object o";
    Buffer.add_string buf (string_of_int i);
    Buffer.add_string buf " = ";
    link_positions := Buffer.length buf :: !link_positions;
    Buffer.add_string buf ";\n"
  done;
  Buffer.add_string buf "    return acc;\n  }\n}\n";
  let text = Buffer.contents buf in
  let link_specs =
    List.rev !link_positions
    |> List.mapi (fun i pos ->
           let target = Store.Session.alloc_string vm.Rt.session (Printf.sprintf "target%d" i) in
           { Storage_form.link = Hyperlink.L_object target; label = Printf.sprintf "t%d" i; pos })
  in
  Storage_form.create vm ~class_name:name ~text ~links:link_specs

(* An editing form of [lines] lines, each [width] chars, a link per line. *)
let synthetic_editing_form ~lines ~width =
  let line_text = String.make width 'x' in
  {
    Editing_form.lines =
      List.init lines (fun i ->
          {
            Editing_form.text = line_text;
            links =
              [
                {
                  Editing_form.link = Hyperlink.L_primitive (Pvalue.Int (Int32.of_int i));
                  label = Printf.sprintf "l%d" i;
                  offset = width / 2;
                };
              ];
          });
    class_name = "Synth";
  }

(* A class with [n] int fields and matching instances, for evolution
   benchmarks. *)
let evolution_workload vm ~instances =
  let source = "public class Evo { public int a; public int b; public int c; }" in
  ignore (Jcompiler.compile_and_load vm [ source ]);
  let objs =
    List.init instances (fun i ->
        let o = Vm.new_instance vm ~cls:"Evo" ~desc:"()V" [] in
        Store.Session.set_root vm.Rt.session (Printf.sprintf "evo%d" i) o;
        o)
  in
  (source, objs)
