(* HTML publishing (Section 6): translate hyper-programs to HTML with the
   hyper-links represented as URLs, as was done to publish the Napier88
   compiler source.  Exports every live registered hyper-program plus an
   index page. *)

open Pstore
open Minijava
open Hyperprog

let () =
  let store = Store.create () in
  let vm = Boot.boot_fresh store in
  Dynamic_compiler.install vm;
  ignore
    (Jcompiler.compile_and_load vm
       [
         {|public class Greeter {
  private String greeting;
  public Greeter(String g) { greeting = g; }
  public String greet(String whom) { return greeting + ", " + whom + "!"; }
}
|};
       ]);
  let greeter =
    Vm.new_instance vm ~cls:"Greeter" ~desc:"(Ljava.lang.String;)V" [ Rt.jstring vm "Hello" ]
  in
  Store.Session.set_root vm.Rt.session "greeter" greeter;
  let g_oid = match greeter with Pvalue.Ref o -> o | _ -> assert false in

  (* Two hyper-programs to publish. *)
  let make_hp class_name text links = Storage_form.create vm ~class_name ~text ~links in
  let text1 =
    "public class HelloMain {\n  public static void main(String[] args) {\n    System.println(.greet(\"world\"));\n  }\n}\n"
  in
  let dot1 =
    let rec find i = if text1.[i] = '.' && text1.[i + 1] = 'g' then i else find (i + 1) in
    find 0
  in
  let hp1 =
    make_hp "HelloMain" text1
      [ { Storage_form.link = Hyperlink.L_object g_oid; label = "greeter"; pos = dot1 } ]
  in
  let text2 =
    "public class Constants {\n  public static int answer() { return ; }\n}\n"
  in
  let ret_pos =
    let pat = "return ;" in
    let rec find i = if String.sub text2 i (String.length pat) = pat then i else find (i + 1) in
    find 0 + String.length "return "
  in
  let hp2 =
    make_hp "Constants" text2
      [ { Storage_form.link = Hyperlink.L_primitive (Pvalue.Int 42l); label = "42"; pos = ret_pos } ]
  in
  (* Register them (compiling registers hyper-programs; do both). *)
  ignore (Dynamic_compiler.compile_hyper_programs vm [ hp1; hp2 ]);
  Store.Session.set_root vm.Rt.session "hp1" (Pvalue.Ref hp1);
  Store.Session.set_root vm.Rt.session "hp2" (Pvalue.Ref hp2);

  let dir = Filename.concat (Filename.get_temp_dir_name ()) "hyper-html" in
  let exported = Html_export.export_all vm ~dir in
  Printf.printf "exported %d hyper-programs to %s: %s\n" (List.length exported) dir
    (String.concat ", " exported);

  (* Show one page. *)
  print_endline "\n== HelloMain.html ==";
  let ic = open_in (Filename.concat dir "HelloMain.html") in
  (try
     while true do
       print_endline (input_line ic)
     done
   with End_of_file -> close_in ic);
  print_endline "html_publish: OK"
