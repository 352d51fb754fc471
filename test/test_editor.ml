(* The three editor layers (Figure 10): basic editor operations with a
   reference-model property test, window editor faces and rendering, and
   the user editor's hyper-programming commands. *)

open Pstore
open Minijava
open Hyperprog
open Editor
open Helpers

let pos line col = { Basic_editor.line; col }

let lk n = { Basic_editor.payload = n; label = Printf.sprintf "L%d" n }

(* -- basic editor ------------------------------------------------------------ *)

let insert_single_line () =
  let ed = Basic_editor.create () in
  let p = Basic_editor.insert_text ed (pos 0 0) "hello" in
  check_output "text" "hello" (Basic_editor.line_text ed 0);
  check_int "end col" 5 p.Basic_editor.col;
  ignore (Basic_editor.insert_text ed (pos 0 5) " world");
  check_output "appended" "hello world" (Basic_editor.line_text ed 0);
  ignore (Basic_editor.insert_text ed (pos 0 5) ",");
  check_output "mid insert" "hello, world" (Basic_editor.line_text ed 0)

let insert_multi_line () =
  let ed = Basic_editor.create () in
  ignore (Basic_editor.insert_text ed (pos 0 0) "ab");
  let p = Basic_editor.insert_text ed (pos 0 1) "1\n2\n3" in
  check_int "three lines" 3 (Basic_editor.line_count ed);
  check_output "line0" "a1" (Basic_editor.line_text ed 0);
  check_output "line1" "2" (Basic_editor.line_text ed 1);
  check_output "line2" "3b" (Basic_editor.line_text ed 2);
  check_int "end line" 2 p.Basic_editor.line;
  check_int "end col" 1 p.Basic_editor.col

let links_shift_on_insert () =
  let ed = Basic_editor.create () in
  ignore (Basic_editor.insert_text ed (pos 0 0) "abcd");
  Basic_editor.insert_link ed (pos 0 2) (lk 1);
  ignore (Basic_editor.insert_text ed (pos 0 0) "xx");
  (match Basic_editor.line_links ed 0 with
  | [ (offset, _) ] -> check_int "shifted" 4 offset
  | _ -> Alcotest.fail "one link expected");
  (* inserting after the link does not move it *)
  ignore (Basic_editor.insert_text ed (pos 0 6) "yy");
  match Basic_editor.line_links ed 0 with
  | [ (offset, _) ] -> check_int "unmoved" 4 offset
  | _ -> Alcotest.fail "one link expected"

let links_move_across_lines () =
  let ed = Basic_editor.create () in
  ignore (Basic_editor.insert_text ed (pos 0 0) "abcd");
  Basic_editor.insert_link ed (pos 0 3) (lk 1);
  (* split the line before the link *)
  ignore (Basic_editor.insert_text ed (pos 0 1) "\n");
  check_int "two lines" 2 (Basic_editor.line_count ed);
  match Basic_editor.line_links ed 1 with
  | [ (offset, link) ] ->
    check_int "moved to line 1" 2 offset;
    check_int "payload intact" 1 link.Basic_editor.payload
  | _ -> Alcotest.fail "link lost in split"

let delete_range_single_line () =
  let ed = Basic_editor.create () in
  ignore (Basic_editor.insert_text ed (pos 0 0) "hello world");
  Basic_editor.insert_link ed (pos 0 8) (lk 1);
  Basic_editor.delete_range ed (pos 0 5) (pos 0 11);
  check_output "deleted" "hello" (Basic_editor.line_text ed 0);
  check_int "link inside range removed" 0 (List.length (Basic_editor.line_links ed 0))

let delete_range_multi_line () =
  let ed = Basic_editor.create () in
  ignore (Basic_editor.insert_text ed (pos 0 0) "aaa\nbbb\nccc\nddd");
  Basic_editor.insert_link ed (pos 3 2) (lk 9);
  Basic_editor.delete_range ed (pos 0 2) (pos 2 1);
  check_int "lines merged" 2 (Basic_editor.line_count ed);
  check_output "merged" "aacc" (Basic_editor.line_text ed 0);
  check_output "last intact" "ddd" (Basic_editor.line_text ed 1);
  match Basic_editor.line_links ed 1 with
  | [ (2, _) ] -> ()
  | _ -> Alcotest.fail "link on surviving line lost"

let cut_and_paste_with_links () =
  let ed = Basic_editor.create () in
  ignore (Basic_editor.insert_text ed (pos 0 0) "call(, );");
  Basic_editor.insert_link ed (pos 0 5) (lk 1);
  Basic_editor.insert_link ed (pos 0 7) (lk 2);
  let clip = Basic_editor.cut ed (pos 0 4) (pos 0 8) in
  check_output "after cut" "call;" (Basic_editor.line_text ed 0);
  check_int "links went with the cut" 0 (List.length (Basic_editor.line_links ed 0));
  (* paste elsewhere *)
  ignore (Basic_editor.insert_text ed (pos 0 5) " echo");
  ignore (Basic_editor.paste ed (pos 0 10) clip);
  check_output "after paste" "call; echo(, )" (Basic_editor.line_text ed 0);
  check_int "links restored" 2 (List.length (Basic_editor.line_links ed 0))

let remove_link () =
  let ed = Basic_editor.create () in
  ignore (Basic_editor.insert_text ed (pos 0 0) "ab");
  Basic_editor.insert_link ed (pos 0 1) (lk 5);
  (match Basic_editor.remove_link_at ed (pos 0 1) with
  | Some link -> check_int "payload" 5 link.Basic_editor.payload
  | None -> Alcotest.fail "link not found");
  check_int "gone" 0 (Basic_editor.total_links ed);
  check_bool "second remove is None" true (Basic_editor.remove_link_at ed (pos 0 1) = None)

let bad_positions_rejected () =
  let ed = Basic_editor.create () in
  ignore (Basic_editor.insert_text ed (pos 0 0) "ab");
  let expect f =
    match f () with
    | _ -> Alcotest.fail "expected Bad_position"
    | exception Basic_editor.Bad_position _ -> ()
  in
  expect (fun () -> Basic_editor.insert_text ed (pos 5 0) "x");
  expect (fun () -> Basic_editor.insert_text ed (pos 0 9) "x");
  expect (fun () -> Basic_editor.delete_range ed (pos 0 2) (pos 0 0))

(* -- window editor ------------------------------------------------------------- *)

let window_faces_and_rendering () =
  let buffer = Basic_editor.create () in
  ignore (Basic_editor.insert_text buffer (pos 0 0) "class Foo");
  let w = Window_editor.create buffer in
  Window_editor.set_face w ~line:0 ~start:0 ~len:5 Face.keyword;
  let segments = Window_editor.render_line w 0 in
  check_int "two segments" 2 (List.length segments);
  let first = List.hd segments in
  check_output "keyword text" "class" first.Window_editor.seg_text;
  check_bool "keyword face" true (Face.equal first.Window_editor.seg_face Face.keyword);
  let ansi = Window_editor.render_ansi w in
  check_bool "ansi escape present" true (contains ansi "\027[");
  let plain = Window_editor.render_plain w in
  check_output "plain" "class Foo\n" plain

let window_renders_link_buttons () =
  let buffer = Basic_editor.create () in
  ignore (Basic_editor.insert_text buffer (pos 0 0) "x = ;");
  Basic_editor.insert_link buffer (pos 0 4) { Basic_editor.payload = 0; label = "mary" };
  let w = Window_editor.create buffer in
  check_output "button rendered" "x = [mary];\n" (Window_editor.render_plain w)

let window_viewport () =
  let buffer = Basic_editor.create () in
  ignore
    (Basic_editor.insert_text buffer (pos 0 0)
       (String.concat "\n" (List.init 50 (fun i -> Printf.sprintf "line%d" i))));
  let w = Window_editor.create ~height:3 buffer in
  Window_editor.scroll_to w 10;
  check_output "viewport window" "line10\nline11\nline12\n" (Window_editor.render_plain w);
  (* moving the cursor keeps it visible *)
  Window_editor.set_cursor w (pos 40 0);
  check_bool "scrolled to cursor" true (contains (Window_editor.render_plain w) "line40")

let window_cursor_editing () =
  let buffer = Basic_editor.create () in
  let w = Window_editor.create buffer in
  Window_editor.insert_at_cursor w "ab";
  Window_editor.insert_at_cursor w "c";
  check_output "typed" "abc" (Basic_editor.line_text buffer 0);
  Window_editor.backspace w;
  check_output "backspace" "ab" (Basic_editor.line_text buffer 0);
  Window_editor.set_selection w (Some (pos 0 0, pos 0 1));
  Window_editor.delete_selection w;
  check_output "selection deleted" "b" (Basic_editor.line_text buffer 0)

(* -- user editor ------------------------------------------------------------------ *)

let user_editor_compose_and_go () =
  let _store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let p = new_person vm "solo" in
  let ed = User_editor.create ~class_name:"Solo" vm in
  User_editor.type_text ed
    "public class Solo {\n  public static void main(String[] args) {\n    System.println(.getName());\n  }\n}\n";
  (* position the cursor just before .getName() *)
  User_editor.move_cursor ed (pos 2 19);
  (match User_editor.insert_link ed (Hyperlink.L_object (oid_of p)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert refused: %s" e);
  (match User_editor.go ed with
  | Ok principal -> check_output "principal" "Solo" principal
  | Error e -> Alcotest.failf "go failed: %s" e);
  check_output "ran with link" "solo\n" (Rt.take_output vm)

let user_editor_save_load_roundtrip () =
  let _store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let p = new_person vm "x" in
  let ed = User_editor.create ~class_name:"T" vm in
  User_editor.type_text ed "public class T { Object o = ; }";
  User_editor.move_cursor ed (pos 0 28);
  ignore (User_editor.insert_link ed (Hyperlink.L_object (oid_of p)));
  let hp = User_editor.save ed in
  (* load into a second editor *)
  let ed2 = User_editor.create vm in
  User_editor.load ed2 hp;
  check_output "class name" "T" (User_editor.class_name ed2);
  let form1 = User_editor.editing_form ed in
  let form2 = User_editor.editing_form ed2 in
  check_bool "forms equal" true (Editing_form.equal form1 form2)

let user_editor_refuses_illegal () =
  let _store, vm = fresh_hyper_vm () in
  let ed = User_editor.create ~class_name:"T" vm in
  (* complete program: legality is judged *)
  User_editor.type_text ed "public class T {  f; }";
  User_editor.move_cursor ed (pos 0 17);
  let s = Store.Session.alloc_string vm.Rt.session "obj" in
  (match User_editor.insert_link ed (Hyperlink.L_object s) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "object link at type position must be refused");
  check_bool "error recorded" true (User_editor.last_error ed <> None);
  (* a type link is fine there *)
  match User_editor.insert_link ed (Hyperlink.L_type Jtype.Int) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "type link refused: %s" e

let user_editor_reports_compile_errors () =
  let _store, vm = fresh_hyper_vm () in
  let ed = User_editor.create ~class_name:"Broken" vm in
  User_editor.type_text ed "public class Broken { int x = \"not an int\"; }";
  match User_editor.compile ed with
  | User_editor.Compile_failed msg -> check_bool "message" true (String.length msg > 0)
  | User_editor.Compiled _ -> Alcotest.fail "expected failure"

let user_editor_highlights () =
  let _store, vm = fresh_hyper_vm () in
  let ed = User_editor.create vm in
  User_editor.type_text ed "public class X { // comment\n  String s = \"lit\";\n}";
  let rendered = User_editor.render ~ansi:true ed in
  check_bool "keyword coloured" true (contains rendered "\027[");
  (* plain render unchanged *)
  let plain = User_editor.render ed in
  check_bool "text intact" true (contains plain "public class X")

let suite =
  [
    test "insert text on one line" insert_single_line;
    test "insert text across lines" insert_multi_line;
    test "links shift on insert" links_shift_on_insert;
    test "links move across line splits" links_move_across_lines;
    test "delete range on one line" delete_range_single_line;
    test "delete range across lines" delete_range_multi_line;
    test "cut and paste carry links" cut_and_paste_with_links;
    test "remove link" remove_link;
    test "bad positions rejected" bad_positions_rejected;
    test "window: faces and rendering" window_faces_and_rendering;
    test "window: link buttons" window_renders_link_buttons;
    test "window: viewport and scrolling" window_viewport;
    test "window: cursor editing" window_cursor_editing;
    test "user editor: compose, link, go" user_editor_compose_and_go;
    test "user editor: save/load round trip" user_editor_save_load_roundtrip;
    test "user editor: refuses illegal insertion" user_editor_refuses_illegal;
    test "user editor: reports compile errors" user_editor_reports_compile_errors;
    test "user editor: syntax highlighting" user_editor_highlights;
  ]

(* -- property: random edit scripts agree with a naive reference model --------- *)

(* Reference model: a flat string with links as (position, id) pairs. *)
type model = {
  m_text : string;
  m_links : (int * int) list;
}

let model_insert m pos s =
  {
    m_text = String.sub m.m_text 0 pos ^ s ^ String.sub m.m_text pos (String.length m.m_text - pos);
    m_links =
      List.map (fun (p, id) -> if p > pos then (p + String.length s, id) else (p, id)) m.m_links;
  }

let model_delete m from to_ =
  {
    m_text = String.sub m.m_text 0 from ^ String.sub m.m_text to_ (String.length m.m_text - to_);
    m_links =
      List.filter_map
        (fun (p, id) ->
          if p <= from then Some (p, id)
          else if p < to_ then None
          else Some (p - (to_ - from), id))
        m.m_links;
  }

let model_add_link m pos id = { m with m_links = m.m_links @ [ (pos, id) ] }

(* Convert a flat offset to an editor (line, col). *)
let pos_of_offset text offset =
  let line = ref 0 and bol = ref 0 in
  String.iteri (fun i c -> if i < offset && c = '\n' then begin incr line; bol := i + 1 end) text;
  pos !line (offset - !bol)

type op =
  | Op_insert of int * string
  | Op_delete of int * int
  | Op_link of int * int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        (let* p = int_range 0 100 in
         let* s = string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '\n'; ' ' ]) (int_range 1 6) in
         return (Op_insert (p, s)));
        (let* a = int_range 0 100 in
         let* b = int_range 0 100 in
         return (Op_delete (min a b, max a b)));
        (let* p = int_range 0 100 in
         let* id = int_range 0 999 in
         return (Op_link (p, id)));
      ])

let prop_editor_matches_model =
  QCheck2.Test.make ~name:"edit scripts agree with the reference model" ~count:300
    QCheck2.Gen.(list_size (int_range 1 20) op_gen)
    (fun ops ->
      let ed = Basic_editor.create () in
      let model = ref { m_text = ""; m_links = [] } in
      List.iter
        (fun op ->
          let len = String.length !model.m_text in
          match op with
          | Op_insert (p, s) ->
            let p = min p len in
            ignore (Basic_editor.insert_text ed (pos_of_offset !model.m_text p) s);
            model := model_insert !model p s
          | Op_delete (a, b) ->
            let a = min a len and b = min b len in
            (* avoid deleting boundary-straddling links ambiguity: the
               editor keeps links at the very boundary, and so does the
               model (p <= from stays, p < to_ goes) *)
            Basic_editor.delete_range ed (pos_of_offset !model.m_text a)
              (pos_of_offset !model.m_text b);
            model := model_delete !model a b
          | Op_link (p, id) ->
            let p = min p len in
            Basic_editor.insert_link ed (pos_of_offset !model.m_text p)
              { Basic_editor.payload = id; label = "l" };
            model := model_add_link !model p id)
        ops;
      let text, links = Basic_editor.to_flat ed in
      String.equal text !model.m_text
      && List.sort compare (List.map (fun (p, l) -> (p, l.Basic_editor.payload)) links)
         = List.sort compare !model.m_links)

let props = [ QCheck_alcotest.to_alcotest prop_editor_matches_model ]
