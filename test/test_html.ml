(* HTML publishing (Section 6). *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let export_marry () =
  let _store, vm = fresh_hyper_vm () in
  let hp, vangelis, _ = marry_example vm in
  let html = Html_export.export vm hp in
  check_bool "doctype" true (contains html "<!DOCTYPE html>");
  check_bool "title" true (contains html "<title>MarryExample</title>");
  check_bool "method link URL" true
    (contains html "store://method/Person.marry(LPerson;LPerson;)V");
  check_bool "object link URL" true
    (contains html (Printf.sprintf "store://object/%d" (Oid.to_int (oid_of vangelis))));
  check_bool "label as anchor text" true (contains html ">vangelis</a>");
  check_bool "text escaped" true (contains html "String[] args")

let escaping () =
  check_output "angle brackets" "&lt;a&gt; &amp; &quot;b&quot;" (Html_export.escape "<a> & \"b\"")

let export_form_direct () =
  let form =
    Editing_form.of_flat ~class_name:"Snippet"
      {
        Editing_form.text = "int x = ;";
        flat_links = [ (8, Hyperlink.L_primitive (Pvalue.Int 5l), "five") ];
      }
  in
  let html = Html_export.export_form form in
  check_bool "value URL" true (contains html "store://value/5");
  check_bool "anchor label" true (contains html ">five</a>")

let export_all_to_directory () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Store.Session.set_root vm.Rt.session "hp" (Pvalue.Ref hp);
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "hyper-html-test" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let names = Html_export.export_all vm ~dir in
      Alcotest.(check (list string)) "one program" [ "MarryExample" ] names;
      check_bool "page written" true (Sys.file_exists (Filename.concat dir "MarryExample.html"));
      check_bool "index written" true (Sys.file_exists (Filename.concat dir "index.html")))

(* Regression: user-controlled text (source body, link labels, class
   names, primitive link values) must come out inert everywhere it is
   embedded — body text, anchor labels, and href attributes alike. *)
let export_escapes_hostile_text () =
  let form =
    Editing_form.of_flat ~class_name:"Evil<script>"
      {
        Editing_form.text = "// <script>alert(document.cookie)</script>\nint x = ;";
        flat_links =
          [ (52, Hyperlink.L_primitive (Pvalue.Int 5l), "<b>label</b> \"quoted\"") ];
      }
  in
  let html = Html_export.export_form form in
  check_bool "body script escaped" true (contains html "&lt;script&gt;alert");
  check_bool "label escaped" true (contains html "&lt;b&gt;label&lt;/b&gt;");
  check_bool "label quotes escaped" true (contains html "&quot;quoted&quot;");
  check_bool "class name escaped" true (contains html "Evil&lt;script&gt;");
  check_bool "no live script tag" false (contains html "<script>")

let per_kind_urls () =
  let p = Oid.of_int 9 in
  let checks =
    [
      (Hyperlink.L_object p, "store://object/9");
      (Hyperlink.L_primitive (Pvalue.Bool true), "store://value/true");
      (Hyperlink.L_type Jtype.Int, "store://type/I");
      (Hyperlink.L_static_method { cls = "A"; name = "m"; desc = "()V" }, "store://method/A.m()V");
      (Hyperlink.L_constructor { cls = "A"; desc = "()V" }, "store://constructor/A()V");
      (Hyperlink.L_static_field { cls = "A"; name = "f" }, "store://field/A.f");
      ( Hyperlink.L_instance_field { target = p; cls = "A"; name = "f" },
        "store://field/9/A.f" );
      (Hyperlink.L_array_element { array = p; index = 2 }, "store://element/9/2");
    ]
  in
  List.iter (fun (link, url) -> check_output url url (Html_export.link_url link)) checks

(* The dashboard's program page reads one registry slot: a live uid
   renders, and a collected, negative or never-allocated uid gives
   [None]. *)
let live_page_only_for_live_uids () =
  let _store, vm = fresh_hyper_vm () in
  let kept, _, _ = marry_example vm in
  let dropped =
    Storage_form.create vm ~class_name:"Dropped" ~text:"public class Dropped {}\n" ~links:[]
  in
  Store.Session.set_root vm.Rt.session "kept" (Pvalue.Ref kept);
  Store.Session.set_root vm.Rt.session "dropped" (Pvalue.Ref dropped);
  let kept_uid = Registry.add_hp vm ~password:Registry.built_in_password kept in
  let dropped_uid = Registry.add_hp vm ~password:Registry.built_in_password dropped in
  (match Html_export.live_page vm ~uid:kept_uid with
  | Some page -> check_bool "title names the program" true (contains page "MarryExample")
  | None -> Alcotest.fail "a live uid gave no page");
  Store.Session.remove_root vm.Rt.session "dropped";
  ignore (Store.gc (Store.Session.store vm.Rt.session));
  check_bool "collected" true (Registry.hp_at vm dropped_uid = Pvalue.Null);
  check_bool "collected uid" true (Html_export.live_page vm ~uid:dropped_uid = None);
  check_bool "live uid survives the gc" true (Html_export.live_page vm ~uid:kept_uid <> None);
  check_bool "negative uid" true (Html_export.live_page vm ~uid:(-1) = None);
  check_bool "uid = count" true (Html_export.live_page vm ~uid:(Registry.count vm) = None)

let suite =
  [
    test "export MarryExample" export_marry;
    test "HTML escaping" escaping;
    test "export an editing form directly" export_form_direct;
    test "hostile text exports inert" export_escapes_hostile_text;
    test "export-all writes pages and index" export_all_to_directory;
    test "per-kind URLs" per_kind_urls;
    test "live page only for live uids" live_page_only_for_live_uids;
  ]

let props = []

let plain_text_printing () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let printed = Html_export.plain_text vm hp in
  check_bool "footnote markers" true (contains printed "[1]([2], [3]);");
  check_bool "footnote list" true (contains printed "[1] Person.marry = static method");
  check_bool "object footnote" true (contains printed "[2] vangelis = object")

let suite = suite @ [ test "plain-text printing with footnotes" plain_text_printing ]
