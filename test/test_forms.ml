(* Hyper-program representations: storage form (Figures 4-6), editing
   form (Figure 11), and the conversions between them — including the
   round-trip property the design promises. *)

open Pstore
open Minijava
open Hyperprog
open Helpers

(* -- storage form ------------------------------------------------------------- *)

let storage_form_structure () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  check_output "class name" "MarryExample" (Storage_form.class_name vm hp);
  check_int "uid unassigned" (-1) (Storage_form.uid vm hp);
  let links = Storage_form.links vm hp in
  check_int "three links" 3 (List.length links);
  let first = List.hd links in
  check_output "label" "Person.marry" first.Storage_form.label;
  (match first.Storage_form.link with
  | Hyperlink.L_static_method { cls; name; _ } ->
    check_output "method class" "Person" cls;
    check_output "method name" "marry" name
  | _ -> Alcotest.fail "expected a static-method link");
  (* Figure 5/6 flags: method links are isSpecial, not isPrimitive *)
  let link_oids = Storage_form.link_oids vm hp in
  let special, primitive = Storage_form.link_flags vm (List.hd link_oids) in
  check_bool "isSpecial" true special;
  check_bool "isPrimitive" false primitive;
  let _, obj_primitive = Storage_form.link_flags vm (List.nth link_oids 1) in
  check_bool "object not primitive" false obj_primitive

let storage_form_is_java_visible () =
  (* The storage form is made of real hyper.HyperProgram objects usable
     from compiled MiniJava code (Figure 4's accessors). *)
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let text = Vm.call_virtual vm ~recv:(Pvalue.Ref hp) ~name:"getTheText" ~desc:"()Ljava.lang.String;" [] in
  check_bool "text accessible" true
    (contains (Rt.ocaml_string vm text) "public class MarryExample");
  let links = Vm.call_virtual vm ~recv:(Pvalue.Ref hp) ~name:"getTheLinks" ~desc:"()Ljava.util.Vector;" [] in
  let size = Vm.call_virtual vm ~recv:links ~name:"size" ~desc:"()I" [] in
  check_bool "vector size" true (Pvalue.equal size (Pvalue.Int 3l));
  let link0 = Vm.call_virtual vm ~recv:links ~name:"elementAt" ~desc:"(I)Ljava.lang.Object;" [ Pvalue.Int 0l ] in
  let label = Vm.call_virtual vm ~recv:link0 ~name:"getLabel" ~desc:"()Ljava.lang.String;" [] in
  check_output "label via Java" "Person.marry" (Rt.ocaml_string vm label)

let all_link_kinds_roundtrip_storage () =
  let _store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let p = oid_of (new_person vm "x") in
  let arr = Store.Session.alloc_array vm.Rt.session "I" [| Pvalue.Int 1l |] in
  let kinds =
    [
      Hyperlink.L_object p;
      Hyperlink.L_primitive (Pvalue.Int 42l);
      Hyperlink.L_primitive (Pvalue.Double 2.5);
      Hyperlink.L_primitive (Pvalue.Bool true);
      Hyperlink.L_primitive (Pvalue.Char 65);
      Hyperlink.L_primitive (Pvalue.Long 1L);
      Hyperlink.L_type (Jtype.Class "Person");
      Hyperlink.L_type Jtype.Int;
      Hyperlink.L_type (Jtype.Array (Jtype.Class "Person"));
      Hyperlink.L_static_method { cls = "Person"; name = "marry"; desc = "(LPerson;LPerson;)V" };
      Hyperlink.L_instance_method { cls = "Person"; name = "getName"; desc = "()Ljava.lang.String;" };
      Hyperlink.L_constructor { cls = "Person"; desc = "(Ljava.lang.String;)V" };
      Hyperlink.L_static_field { cls = "Person"; name = "x" };
      Hyperlink.L_instance_field { target = p; cls = "Person"; name = "name" };
      Hyperlink.L_array_element { array = arr; index = 0 };
    ]
  in
  let links =
    List.mapi (fun i link -> { Storage_form.link; label = Printf.sprintf "l%d" i; pos = i }) kinds
  in
  let hp =
    Storage_form.create vm ~class_name:"T" ~text:(String.make (List.length kinds) ' ') ~links
  in
  let back = Storage_form.links vm hp in
  List.iteri
    (fun i (spec : Storage_form.link_spec) ->
      let expected = List.nth kinds i in
      check_bool
        (Format.asprintf "kind %d: %a" i Hyperlink.pp expected)
        true
        (Hyperlink.equal expected spec.Storage_form.link);
      check_int "pos" i spec.Storage_form.pos)
    back

let links_sorted_by_position () =
  let _store, vm = fresh_hyper_vm () in
  let links =
    [
      { Storage_form.link = Hyperlink.L_primitive (Pvalue.Int 2l); label = "b"; pos = 5 };
      { Storage_form.link = Hyperlink.L_primitive (Pvalue.Int 1l); label = "a"; pos = 2 };
    ]
  in
  let hp = Storage_form.create vm ~class_name:"T" ~text:"0123456789" ~links in
  let back = Storage_form.links vm hp in
  Alcotest.(check (list string)) "sorted" [ "a"; "b" ]
    (List.map (fun (s : Storage_form.link_spec) -> s.Storage_form.label) back)

(* -- editing form -------------------------------------------------------------- *)

let editing_form_from_storage () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let form = Editing_form.of_storage vm hp in
  check_int "lines (text has trailing newline)" 6 (Editing_form.line_count form);
  check_int "links" 3 (Editing_form.total_links form);
  (* all three links are on the call line, with line-relative offsets *)
  let call_line = List.nth form.Editing_form.lines 2 in
  check_int "links on line 2" 3 (List.length call_line.Editing_form.links);
  let offsets = List.map (fun (l : Editing_form.link) -> l.Editing_form.offset) call_line.Editing_form.links in
  Alcotest.(check (list int)) "offsets" [ 4; 5; 7 ] offsets

let editing_storage_roundtrip () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let form = Editing_form.of_storage vm hp in
  let hp2 = Editing_form.to_storage vm form in
  check_output "text" (Storage_form.text vm hp) (Storage_form.text vm hp2);
  let links1 = Storage_form.links vm hp and links2 = Storage_form.links vm hp2 in
  check_int "same link count" (List.length links1) (List.length links2);
  List.iter2
    (fun (a : Storage_form.link_spec) (b : Storage_form.link_spec) ->
      check_bool "same link" true (Hyperlink.equal a.Storage_form.link b.Storage_form.link);
      check_int "same pos" a.Storage_form.pos b.Storage_form.pos;
      check_output "same label" a.Storage_form.label b.Storage_form.label)
    links1 links2

let flat_conversion_inverse () =
  let form =
    Editing_form.of_flat ~class_name:"T"
      {
        Editing_form.text = "ab\ncd\n\nef";
        flat_links =
          [
            (1, Hyperlink.L_primitive (Pvalue.Int 1l), "one");
            (4, Hyperlink.L_primitive (Pvalue.Int 2l), "two");
            (8, Hyperlink.L_primitive (Pvalue.Int 3l), "three");
          ];
      }
  in
  check_int "4 lines" 4 (Editing_form.line_count form);
  let flat = Editing_form.to_flat form in
  check_output "text back" "ab\ncd\n\nef" flat.Editing_form.text;
  Alcotest.(check (list int)) "positions back" [ 1; 4; 8 ]
    (List.map (fun (p, _, _) -> p) flat.Editing_form.flat_links)

(* -- the splice every form shares ------------------------------------------------ *)

let splice_orders_and_reports_origins () =
  let out, segments =
    Editing_form.splice ~transform:String.uppercase_ascii "ab<c"
      [ (3, "[y]", "y"); (1, "[x]", "x"); (3, "[z]", "z"); (4, "", "empty") ]
  in
  check_output "position order, ties in list order, text transformed" "A[x]B<[y][z]C" out;
  check_bool "segments in output order, empty ones left out" true
    (segments
    = [
        (0, 1, Editing_form.Text 0);
        (1, 3, Editing_form.Inserted "x");
        (4, 2, Editing_form.Text 1);
        (6, 3, Editing_form.Inserted "y");
        (9, 3, Editing_form.Inserted "z");
        (12, 1, Editing_form.Text 3);
      ])

(* A stored position outside the text is refused with the splice's one
   typed error by every form, not an [Invalid_argument] from a substring. *)
let link_position_past_the_text () =
  let store, vm = fresh_hyper_vm () in
  let text = "class C { }" in
  let links =
    [ { Storage_form.link = Hyperlink.L_primitive (Pvalue.Int 1l); label = "one"; pos = 40 } ]
  in
  let hp = Storage_form.create vm ~class_name:"C" ~text ~links in
  Store.Session.set_root (Store.default_session store) "c" (Pvalue.Ref hp);
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a link past the text" what
    | exception Editing_form.Bad_link_position { pos = 40; text_length = 11 } -> ()
  in
  refused "HTML export" (fun () -> ignore (Html_export.export vm hp));
  refused "live page" (fun () -> ignore (Html_export.live_page vm ~uid));
  refused "plain text" (fun () -> ignore (Html_export.plain_text vm hp));
  refused ".hp" (fun () -> ignore (Hyper_source.of_storage vm hp));
  refused "textual form" (fun () -> ignore (Textual_form.generate vm hp))

let suite =
  [
    test "storage form structure (Figures 4-6)" storage_form_structure;
    test "storage form visible from compiled code" storage_form_is_java_visible;
    test "all link kinds round trip through storage" all_link_kinds_roundtrip_storage;
    test "links sorted by position" links_sorted_by_position;
    test "editing form from storage (Figure 11)" editing_form_from_storage;
    test "editing <-> storage round trip" editing_storage_roundtrip;
    test "flat conversion is an inverse" flat_conversion_inverse;
    test "the splice orders insertions and reports origins" splice_orders_and_reports_origins;
    test "a link position past the text is one typed error" link_position_past_the_text;
  ]

(* Property: random (text, links) round-trips through the editing form. *)
let flat_gen =
  QCheck2.Gen.(
    let* raw = string_size ~gen:(oneofl [ 'a'; 'b'; '\n'; ' ' ]) (int_range 0 60) in
    let* n_links = int_range 0 8 in
    let* positions = list_repeat n_links (int_range 0 (String.length raw)) in
    let links =
      List.mapi
        (fun i pos -> (pos, Hyperprog.Hyperlink.L_primitive (Pvalue.Int (Int32.of_int i)), Printf.sprintf "l%d" i))
        (List.sort_uniq compare positions)
    in
    return (raw, links))

let prop_flat_roundtrip =
  QCheck2.Test.make ~name:"editing form round-trips arbitrary flat programs" ~count:300
    flat_gen
    (fun (text, links) ->
      let form =
        Editing_form.of_flat ~class_name:"T" { Editing_form.text; flat_links = links }
      in
      let flat = Editing_form.to_flat form in
      String.equal flat.Editing_form.text text
      && List.length flat.Editing_form.flat_links = List.length links
      && List.for_all2
           (fun (p1, l1, s1) (p2, l2, s2) ->
             p1 = p2 && Hyperprog.Hyperlink.equal l1 l2 && String.equal s1 s2)
           (List.sort compare flat.Editing_form.flat_links)
           (List.sort compare links))

let props = [ QCheck_alcotest.to_alcotest prop_flat_roundtrip ]
