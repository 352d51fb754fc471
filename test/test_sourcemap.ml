(* Error reporting in terms of the original hyper-program (the paper's
   planned improvement, Section 5.4.2), plus drag-and-drop of links (the
   planned interaction of Section 5.4.1). *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let generate_mapped vm hp =
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  Textual_form.generate_mapped vm hp

let map_covers_whole_form () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let textual, map = generate_mapped vm hp in
  (* every offset maps to SOMETHING sensible *)
  let links = Storage_form.links vm hp in
  String.iteri
    (fun i _ ->
      match Textual_form.map_offset map i with
      | Textual_form.From_text o ->
        check_bool "text offset in range" true (o <= String.length (Storage_form.text vm hp));
        ignore o
      | Textual_form.From_link k -> check_bool "link index in range" true (k < List.length links)
      | Textual_form.From_header -> ())
    textual

let text_positions_map_back_exactly () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let textual, map = generate_mapped vm hp in
  (* The word "MarryExample" comes from the original text: its textual
     offset maps back to the original offset of the same word. *)
  let orig = Storage_form.text vm hp in
  let t_off = index_of textual "MarryExample" in
  let o_off = index_of orig "MarryExample" in
  (match Textual_form.map_offset map t_off with
  | Textual_form.From_text o -> check_int "mapped back" o_off o
  | _ -> Alcotest.fail "expected From_text");
  (* A position inside a getLink retrieval maps to the link. *)
  let g_off = index_of textual "getLink" in
  match Textual_form.map_offset map g_off with
  | Textual_form.From_link 1 -> ()
  | Textual_form.From_link k -> Alcotest.failf "expected link 1, got %d" k
  | _ -> Alcotest.fail "expected From_link"

let header_positions_map_to_header () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let textual, map = generate_mapped vm hp in
  let i_off = index_of textual "import compiler" in
  match Textual_form.map_offset map i_off with
  | Textual_form.From_header -> ()
  | _ -> Alcotest.fail "expected From_header"

let offsets_and_positions_invert () =
  let text = "ab\ncdef\n\ng" in
  for offset = 0 to String.length text - 1 do
    let pos = Textual_form.pos_of_offset text offset in
    check_int (Printf.sprintf "offset %d" offset) offset
      (Textual_form.offset_of_pos text pos)
  done

let compile_error_in_hyper_program_terms () =
  let _store, vm = fresh_hyper_vm () in
  (* an error in the USER's text (bad expression on line 3) *)
  let text =
    "public class Bad {\n  public static void main(String[] args) {\n    int x = \"oops\";\n  }\n}\n"
  in
  let ed = Editor.User_editor.create ~class_name:"Bad" vm in
  Editor.User_editor.type_text ed text;
  (match Editor.User_editor.compile ed with
  | Editor.User_editor.Compile_failed msg ->
    check_bool "explains in hyper-program terms" true (contains msg "in the hyper-program");
    check_bool "names the right line" true (contains msg "3:")
  | Editor.User_editor.Compiled _ -> Alcotest.fail "expected failure");
  (* an error caused by a LINK (object where an int is expected): the
     message blames the link by its label *)
  let s = Store.Session.alloc_string vm.Rt.session "not an int" in
  let ed2 = Editor.User_editor.create ~class_name:"Bad2" vm in
  Editor.User_editor.type_text ed2 "public class Bad2 {\n  static int f() { return ; }\n}\n";
  Editor.User_editor.move_cursor ed2 { Editor.Basic_editor.line = 1; col = 26 };
  (match Editor.User_editor.insert_link ~label:"the-string" ed2 (Hyperlink.L_object s) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert: %s" e);
  match Editor.User_editor.compile ed2 with
  | Editor.User_editor.Compile_failed msg ->
    check_bool "blames the link" true (contains msg "in hyper-link");
    check_bool "names the label" true (contains msg "the-string")
  | Editor.User_editor.Compiled _ -> Alcotest.fail "expected failure"

(* -- drag and drop ------------------------------------------------------------ *)

let drag_within_editor () =
  let _store, vm = fresh_hyper_vm () in
  let ed = Editor.User_editor.create ~class_name:"T" vm in
  Editor.User_editor.type_text ed "f(, )";
  let buffer = Editor.User_editor.buffer ed in
  Editor.Basic_editor.insert_link buffer { Editor.Basic_editor.line = 0; col = 2 }
    { Editor.Basic_editor.payload = Hyperlink.L_primitive (Pvalue.Int 1l); label = "one" };
  (* drag it from before the comma to after *)
  (match
     Editor.User_editor.drag_link ed
       ~from:{ Editor.Basic_editor.line = 0; col = 2 }
       ~to_:{ Editor.Basic_editor.line = 0; col = 4 }
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "drag: %s" e);
  (match Editor.Basic_editor.line_links buffer 0 with
  | [ (4, l) ] -> check_output "label survives" "one" l.Editor.Basic_editor.label
  | _ -> Alcotest.fail "link not moved");
  (* dragging from an empty position fails *)
  match
    Editor.User_editor.drag_link ed
      ~from:{ Editor.Basic_editor.line = 0; col = 0 }
      ~to_:{ Editor.Basic_editor.line = 0; col = 1 }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected failure"

let drag_from_browser () =
  let store = Store.create () in
  let session = Hyperui.Session.create store in
  let vm = Hyperui.Session.vm session in
  compile_into vm [ person_source ];
  let p = new_person vm "dragged" in
  Store.Session.set_root (Store.default_session store) "p" p;
  let b = Hyperui.Session.browser session in
  let panel = Browser.Ocb.open_object b (oid_of p) in
  ignore panel;
  let _id, ed = Hyperui.Session.new_editor ~class_name:"T" session in
  Editor.User_editor.type_text ed "public class T { Object o = ; }";
  (* drop the object itself (row 0 is the class row; find 'name'? we drop
     the panel object itself via the class row's parent: use row 1's
     location? Simpler: drop the value of the name row) *)
  let rows = Browser.Ocb.rows b panel in
  let name_row =
    let rec go i = function
      | [] -> Alcotest.fail "no name row"
      | r :: rest -> if r.Browser.Ocb.row_label = "name" then i else go (i + 1) rest
    in
    go 0 rows
  in
  match
    Hyperui.Session.drag_from_browser session ~row:name_row
      ~pos:{ Editor.Basic_editor.line = 0; col = 28 }
  with
  | Ok (Hyperlink.L_object _) ->
    check_int "link landed" 1
      (Editor.Basic_editor.total_links (Editor.User_editor.buffer ed))
  | Ok _ -> Alcotest.fail "expected object link"
  | Error e -> Alcotest.failf "drag: %s" e

let suite =
  [
    test "source map covers the whole textual form" map_covers_whole_form;
    test "text positions map back exactly" text_positions_map_back_exactly;
    test "header positions map to the header" header_positions_map_to_header;
    test "offset/position conversions invert" offsets_and_positions_invert;
    test "compile errors reported in hyper-program terms" compile_error_in_hyper_program_terms;
    test "drag a link within the editor" drag_within_editor;
    test "drag and drop from the browser" drag_from_browser;
  ]

let props = []
