(* The integrated hyper-programming UI (Section 5.4, Figure 12): the
   editor/browser protocol, Insert Link (value and location halves),
   link buttons, Compile / Display Class / Go, and persistence of whole
   sessions. *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let setup () =
  let store = Store.create () in
  let session = Hyperui.Session.create store in
  let vm = Hyperui.Session.vm session in
  compile_into vm [ person_source ];
  let vangelis = new_person vm "vangelis" in
  let mary = new_person vm "mary" in
  Store.Session.set_root (Store.default_session store) "vangelis" vangelis;
  Store.Session.set_root (Store.default_session store) "mary" mary;
  (store, session, vm, vangelis, mary)

let row_with b panel pred =
  let rows = Browser.Ocb.rows b panel in
  let rec go i = function
    | [] -> Alcotest.fail "row not found"
    | r :: rest -> if pred r then i else go (i + 1) rest
  in
  go 0 rows

(* Script the full Figure 12 composition. *)
let compose_marry session vm =
  ignore vm;
  let b = Hyperui.Session.browser session in
  let roots = Browser.Ocb.open_roots b in
  let _id, ed = Hyperui.Session.new_editor ~class_name:"MarryExample" session in
  Editor.User_editor.type_text ed
    "public class MarryExample {\n  public static void main(String[] args) {\n    ";
  let cls_panel = Browser.Ocb.open_class b "Person" in
  let marry_row = row_with b cls_panel (fun r -> contains r.Browser.Ocb.row_display "marry") in
  (match Hyperui.Session.insert_link_from_row session ~row:marry_row with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "marry link: %s" e);
  Editor.User_editor.type_text ed "(";
  Browser.Ocb.bring_to_front b roots.Browser.Ocb.panel_id;
  let v_row = row_with b roots (fun r -> r.Browser.Ocb.row_label = "vangelis") in
  (match Hyperui.Session.insert_link_from_row session ~row:v_row with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "vangelis link: %s" e);
  Editor.User_editor.type_text ed ", ";
  let m_row = row_with b roots (fun r -> r.Browser.Ocb.row_label = "mary") in
  (match Hyperui.Session.insert_link_from_row session ~row:m_row with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "mary link: %s" e);
  Editor.User_editor.type_text ed ");\n  }\n}\n";
  ed

let figure12_flow () =
  let _store, session, vm, vangelis, _ = setup () in
  let _ed = compose_marry session vm in
  (match Hyperui.Session.go session with
  | Ok principal -> check_output "principal" "MarryExample" principal
  | Error e -> Alcotest.failf "go: %s" e);
  let spouse = Vm.call_virtual vm ~recv:vangelis ~name:"getSpouse" ~desc:"()LPerson;" [] in
  check_bool "marriage happened" true (spouse <> Pvalue.Null);
  (* the log narrates the session *)
  let events = Hyperui.Session.events session in
  check_bool "insert logged" true
    (List.exists (fun e -> contains e "inserted link") events);
  check_bool "run logged" true (List.exists (fun e -> contains e "ran MarryExample.main") events)

let press_buttons_browse_back () =
  let _store, session, vm, _, _ = setup () in
  let ed = compose_marry session vm in
  let lines = Editor.Basic_editor.lines (Editor.User_editor.buffer ed) in
  let presses = ref 0 in
  List.iteri
    (fun ln (_, links) ->
      List.iter
        (fun (col, _) ->
          match Hyperui.Session.press_link_button session { Editor.Basic_editor.line = ln; col } with
          | Ok _ -> incr presses
          | Error e -> Alcotest.failf "press: %s" e)
        links)
    lines;
  check_int "three buttons pressed" 3 !presses;
  (* each press opened a panel *)
  check_bool "panels opened" true
    (List.length (Browser.Ocb.panels (Hyperui.Session.browser session)) >= 5)

let insert_location_half () =
  let _store, session, vm, vangelis, _ = setup () in
  ignore vm;
  let b = Hyperui.Session.browser session in
  let _id, ed = Hyperui.Session.new_editor ~class_name:"T" session in
  Editor.User_editor.type_text ed "public class T { static String f() { return ; } }";
  Editor.User_editor.move_cursor ed { Editor.Basic_editor.line = 0; col = 44 };
  let obj_panel = Browser.Ocb.open_object b (oid_of vangelis) in
  let name_row = row_with b obj_panel (fun r -> r.Browser.Ocb.row_label = "name") in
  (* the LEFT half: link to the field location, not its current value *)
  (match Hyperui.Session.insert_link_from_row session ~half:Hyperui.Session.Location_half ~row:name_row with
  | Ok (Hyperlink.L_instance_field { name = "name"; _ }) -> ()
  | Ok l -> Alcotest.failf "expected a field-location link, got %s" (Format.asprintf "%a" Hyperlink.pp l)
  | Error e -> Alcotest.failf "location insert: %s" e);
  (* the location link delivers the CURRENT value at run time *)
  (match Hyperui.Session.compile session with
  | Editor.User_editor.Compiled _ -> ()
  | Editor.User_editor.Compile_failed e -> Alcotest.failf "compile: %s" e);
  let r = Vm.call_static vm ~cls:"T" ~name:"f" ~desc:"()Ljava.lang.String;" [] in
  check_output "current value" "vangelis" (Rt.ocaml_string vm r);
  (* mutate the field, re-run WITHOUT recompiling: delayed binding *)
  Store.Session.set_field vm.Rt.session (oid_of vangelis) (Rt.field_slot vm "Person" "name")
    (Rt.jstring vm "renamed");
  let r2 = Vm.call_static vm ~cls:"T" ~name:"f" ~desc:"()Ljava.lang.String;" [] in
  check_output "rebound value" "renamed" (Rt.ocaml_string vm r2)

let insert_from_front_panel () =
  let _store, session, vm, vangelis, _ = setup () in
  ignore vm;
  let b = Hyperui.Session.browser session in
  let _id, ed = Hyperui.Session.new_editor ~class_name:"T" session in
  Editor.User_editor.type_text ed "public class T { Object o = ; }";
  Editor.User_editor.move_cursor ed { Editor.Basic_editor.line = 0; col = 28 };
  ignore (Browser.Ocb.open_object b (oid_of vangelis));
  match Hyperui.Session.insert_link_from_browser session with
  | Ok (Hyperlink.L_object oid) -> check_bool "links front object" true (Oid.equal oid (oid_of vangelis))
  | Ok _ -> Alcotest.fail "expected object link"
  | Error e -> Alcotest.failf "insert: %s" e

let display_class_button () =
  let _store, session, vm, _, _ = setup () in
  let _ed = compose_marry session vm in
  match Hyperui.Session.display_class session with
  | Ok panel -> begin
    match panel.Browser.Ocb.entity with
    | Browser.Ocb.E_class "MarryExample" -> ()
    | _ -> Alcotest.fail "expected MarryExample class panel"
  end
  | Error e -> Alcotest.failf "display class: %s" e

let compile_errors_reported () =
  let _store, session, _vm, _, _ = setup () in
  let _id, ed = Hyperui.Session.new_editor ~class_name:"Bad" session in
  Editor.User_editor.type_text ed "public class Bad { int x = \"zzz\"; }";
  match Hyperui.Session.compile session with
  | Editor.User_editor.Compile_failed msg -> check_bool "message text" true (String.length msg > 3)
  | Editor.User_editor.Compiled _ -> Alcotest.fail "expected failure"

let whole_session_persists () =
  let path = Filename.temp_file "session" ".store" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let store, session, vm, _, _ = setup () in
      let ed = compose_marry session vm in
      let hp = Editor.User_editor.save ed in
      Store.Session.set_root (Store.default_session store) "composed" (Pvalue.Ref hp);
      Store.stabilise ~path store;
      (* a later session reopens the same store and runs Go on the saved
         program *)
      let store2 = Store.open_file path in
      let session2 = Hyperui.Session.create store2 in
      let vm2 = Hyperui.Session.vm session2 in
      (match Store.Session.root (Store.default_session store2) "composed" with
      | Some (Pvalue.Ref hp2) ->
        let _id, ed2 = Hyperui.Session.new_editor session2 in
        Editor.User_editor.load ed2 hp2;
        check_output "class name restored" "MarryExample" (Editor.User_editor.class_name ed2);
        check_int "links restored" 3
          (Editor.Basic_editor.total_links (Editor.User_editor.buffer ed2));
        (match Hyperui.Session.go session2 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "go after reopen: %s" e)
      | _ -> Alcotest.fail "hyper-program lost");
      let vangelis2 = Option.get (Store.Session.root (Store.default_session store2) "vangelis") in
      let spouse = Vm.call_virtual vm2 ~recv:vangelis2 ~name:"getSpouse" ~desc:"()LPerson;" [] in
      check_bool "effect after reopen" true (spouse <> Pvalue.Null))

let render_shows_both () =
  let _store, session, vm, _, _ = setup () in
  ignore (compose_marry session vm);
  let text = Hyperui.Session.render session in
  check_bool "editor section" true (contains text "=== editor ===");
  check_bool "browser section" true (contains text "=== browser ===");
  check_bool "buttons shown" true (contains text "[Person.marry]")

let suite =
  [
    test "Figure 12 compose-and-go flow" figure12_flow;
    test "link buttons open browser panels" press_buttons_browse_back;
    test "location-half insertion gives delayed binding" insert_location_half;
    test "Insert Link uses the front panel" insert_from_front_panel;
    test "Display Class opens the class panel" display_class_button;
    test "compile errors reported" compile_errors_reported;
    test "whole sessions persist and reopen" whole_session_persists;
    test "render shows editor and browser" render_shows_both;
  ]

let props = []

let hyper_code_round_trip () =
  (* Section 6's hyper-code life cycle: compose -> compile -> later, ask
     for the class's program and get the HYPER-PROGRAM back (not text),
     edit it, recompile. *)
  let _store, session, vm, _, _ = setup () in
  let ed = compose_marry session vm in
  ignore ed;
  (match Hyperui.Session.go session with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "go: %s" e);
  (* the association survives independent of the editor *)
  (match Hyperprog.Dynamic_compiler.hyper_program_of_class vm "MarryExample" with
  | Some _ -> ()
  | None -> Alcotest.fail "origin association missing");
  match Hyperui.Session.edit_class session "MarryExample" with
  | Error e -> Alcotest.failf "edit_class: %s" e
  | Ok (_, ed2) ->
    check_output "same class" "MarryExample" (Editor.User_editor.class_name ed2);
    check_int "links recovered" 3
      (Editor.Basic_editor.total_links (Editor.User_editor.buffer ed2));
    (* edit the recovered hyper-program and run it again *)
    Editor.User_editor.move_cursor ed2 { Editor.Basic_editor.line = 2; col = 0 };
    (match Hyperui.Session.go session with
    | Ok principal -> check_output "recompiles" "MarryExample" principal
    | Error e -> Alcotest.failf "go after edit: %s" e)

let edit_class_unknown () =
  let _store, session, _vm, _, _ = setup () in
  match Hyperui.Session.edit_class session "Person" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Person was not compiled from a hyper-program"

let suite =
  suite
  @ [
      test "hyper-code: class back to hyper-program" hyper_code_round_trip;
      test "hyper-code: unknown origin reported" edit_class_unknown;
    ]
