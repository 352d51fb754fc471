(* End-to-end degradation: a quarantined entity must surface as a broken
   hyper-link everywhere above the store — registry retrieval, textual
   form generation, the editor's link buttons, and the browser — instead
   of crashing the session. *)

open Pstore
open Minijava
open Hyperprog
open Scrub_util

(* -- registry ----------------------------------------------------------- *)

let get_link_degrades_to_broken_link () =
  let store, vm = fresh_hyper_vm () in
  let hp, vangelis, mary = marry_example vm in
  Store.Session.set_root (Store.default_session store) "program" (Pvalue.Ref hp);
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  Store.quarantine_oid store (oid_of vangelis) "checksum mismatch (test)";
  (* the typed variant reports the damage as data *)
  (match Registry.try_get_link vm ~password:Registry.built_in_password ~hp:uid ~link:1 with
  | Error (Failure.Quarantined { oid; reason }) ->
    check_bool "names the target" true (Oid.equal oid (oid_of vangelis));
    check_bool "carries the reason" true (contains reason "checksum mismatch");
  | Error e -> Alcotest.failf "wrong damage: %s" (Failure.describe e)
  | Ok _ -> Alcotest.fail "quarantined target must not retrieve");
  (* the raising getLink hands back a BrokenLink instance instead *)
  let v = Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:1 in
  check_output "degraded class" Hyper_src.broken_link_class (Store.Session.class_of (Store.default_session store) (oid_of v));
  let reason =
    Vm.call_virtual vm ~recv:v ~name:"getReason" ~desc:"()Ljava.lang.String;" []
  in
  check_bool "getReason explains" true
    (contains (Store.Session.string_value (Store.default_session store) reason) "quarantined");
  (* healthy siblings in the same program still retrieve *)
  let link2 = Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:2 in
  let obj = Vm.call_virtual vm ~recv:link2 ~name:"getObject" ~desc:"()Ljava.lang.Object;" [] in
  check_bool "sibling link intact" true (Pvalue.equal obj mary)

let paper_exceptions_are_kept () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Store.Session.set_root (Store.default_session store) "program" (Pvalue.Ref hp);
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  (* a bad index is a caller bug, not store damage: still an exception *)
  (match Registry.try_get_link vm ~password:Registry.built_in_password ~hp:uid ~link:99 with
  | Error (Failure.Bad_index { index = 99; _ }) -> ()
  | _ -> Alcotest.fail "expected Bad_index");
  expect_jerror "java.lang.IndexOutOfBoundsException" (fun () ->
      ignore (Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:99));
  (* a collected program keeps its IllegalStateException *)
  Store.Session.remove_root (Store.default_session store) "program";
  ignore (Store.gc store);
  (match Registry.try_get_link vm ~password:Registry.built_in_password ~hp:uid ~link:0 with
  | Error (Failure.Collected u) -> check_int "collected uid" uid u
  | _ -> Alcotest.fail "expected Collected");
  expect_jerror "java.lang.IllegalStateException" (fun () ->
      ignore (Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:0))

let prune_clears_dead_entries () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Store.Session.set_root (Store.default_session store) "keep" (Pvalue.Ref hp);
  (* compiling registers the program and records its class origin blob *)
  ignore (Dynamic_compiler.compile_hyper_program vm hp);
  let uid = Storage_form.uid vm hp in
  check_bool "origin blob recorded" true
    (Store.Session.blob (Store.default_session store) "hyper.origin:MarryExample" = Some (string_of_int uid));
  check_int "anchored while live" 1 (List.length (Registry.origin_anchors vm));
  (* a second, surviving program pins the uid numbering *)
  let hp2 = Storage_form.create vm ~class_name:"X" ~text:"class X { }" ~links:[] in
  Store.Session.set_root (Store.default_session store) "keep2" (Pvalue.Ref hp2);
  let uid2 = Registry.add_hp vm ~password:Registry.built_in_password hp2 in
  (* drop the first program and collect it *)
  Store.Session.remove_root (Store.default_session store) "keep";
  ignore (Store.gc store);
  let pruned = Registry.prune vm in
  check_int "one dead slot cleared" 1 pruned.Registry.cleared_slots;
  check_int "one stale origin removed" 1 pruned.Registry.removed_origins;
  check_bool "origin blob gone" true (Store.Session.blob (Store.default_session store) "hyper.origin:MarryExample" = None);
  (* uids are stable: the survivor keeps its offset, the count its width *)
  check_int "count unchanged" (uid2 + 1) (Registry.count vm);
  check_bool "survivor still live" true
    (List.mem_assoc uid2 (Registry.live_programs vm));
  (* pruning is idempotent *)
  let again = Registry.prune vm in
  check_int "second prune is a no-op (slots)" 0 again.Registry.cleared_slots;
  check_int "second prune is a no-op (origins)" 0 again.Registry.removed_origins

(* -- textual form -------------------------------------------------------- *)

let placeholder_for_quarantined_target () =
  let store, vm = fresh_hyper_vm () in
  let hp, vangelis, _ = marry_example vm in
  Store.Session.set_root (Store.default_session store) "program" (Pvalue.Ref hp);
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  let healthy = Textual_form.generate vm hp in
  check_bool "healthy form has no placeholder" false (contains healthy "broken hyper-link");
  Store.quarantine_oid store (oid_of vangelis) "bit rot (test)";
  let degraded = Textual_form.generate vm hp in
  check_bool "placeholder spliced for link 1" true (contains degraded "broken hyper-link 1");
  check_bool "placeholder is a typed null" true
    (contains degraded "((java.lang.Object) null");
  (* the sibling object link keeps its original getLink index *)
  check_bool "surviving link keeps index 2" true (contains degraded ", 2).getObject()");
  check_bool "still one placeholder only" false (contains degraded "broken hyper-link 2")

let comment_for_unreadable_link () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Store.Session.set_root (Store.default_session store) "program" (Pvalue.Ref hp);
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  (* quarantine the HyperLinkHP record itself, not its target *)
  let link0 = List.hd (Storage_form.link_oids vm hp) in
  Store.quarantine_oid store link0 "link record corrupt (test)";
  let form = Textual_form.generate vm hp in
  check_bool "unreadable link reported" true (contains form "unreadable hyper-link 0");
  check_bool "rest of the program generated" true (contains form "MarryExample")

(* -- every form reads links through one reader ---------------------------- *)

(* MarryExample with link 0's HyperLinkHP record quarantined: links 1
   and 2 stay readable at their getLink indices. *)
let unreadable_link0 () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Store.Session.set_root (Store.default_session store) "program" (Pvalue.Ref hp);
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  Store.quarantine_oid store (List.hd (Storage_form.link_oids vm hp)) "link record corrupt (test)";
  (vm, hp, uid)

let textual_form_has_one_generator () =
  let vm, hp, _ = unreadable_link0 () in
  let textual, map = Textual_form.generate_mapped vm hp in
  check_output "generate is the mapped text" textual (Textual_form.generate vm hp);
  check_bool "the header comment names link 0" true (contains textual "unreadable hyper-link 0");
  check_bool "the header maps to the header" true
    (Textual_form.map_offset map 0 = Textual_form.From_header);
  match Textual_form.map_offset map (index_of textual "getLink") with
  | Textual_form.From_link 1 -> ()
  | Textual_form.From_link k -> Alcotest.failf "link 1's getLink maps to link %d" k
  | _ -> Alcotest.fail "link 1's getLink maps to no link"

let explain_error_reads_the_readable_spec () =
  let vm, hp, _ = unreadable_link0 () in
  let textual = Textual_form.generate vm hp in
  let pos = Textual_form.pos_of_offset textual (index_of textual "getLink") in
  let msg = Dynamic_compiler.explain_error vm hp { Jcompiler.pos; message = "bad link" } in
  check_bool "blames link 1 by its label" true (contains msg "in hyper-link 1 [vangelis]")

let pages_name_the_unreadable_link () =
  let vm, hp, uid = unreadable_link0 () in
  let names_it what page =
    check_bool (what ^ " shows link 1") true (contains page "vangelis");
    check_bool (what ^ " shows link 2") true (contains page "mary");
    check_bool (what ^ " names link 0") true (contains page "unreadable hyper-link 0")
  in
  names_it "live page" (Option.get (Html_export.live_page vm ~uid));
  names_it "export" (Html_export.export vm hp);
  names_it "plain text" (Html_export.plain_text vm hp);
  check_bool "live page links link 1" true
    (contains
       (Option.get (Html_export.live_page vm ~uid))
       (Printf.sprintf "/hp/%d/link/1\">vangelis" uid));
  check_bool "index counts link 0 as broken" true
    (contains (Html_export.live_index vm) "3 links, <b>1 broken</b>")

let editing_form_keeps_readable_links () =
  let vm, hp, _ = unreadable_link0 () in
  let flat = Editing_form.to_flat (Editing_form.of_storage vm hp) in
  Alcotest.(check (list string))
    "the two readable links" [ "vangelis"; "mary" ]
    (List.map (fun (_, _, label) -> label) flat.Editing_form.flat_links)

(* -- editor -------------------------------------------------------------- *)

let editor_marks_broken_buttons () =
  let store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let person = new_person vm "fragile" in
  let ed = Editor.User_editor.create vm in
  (match
     Editor.User_editor.insert_link ~check:false ~label:"fragile" ed
       (Hyperlink.L_object (oid_of person))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert refused: %s" e);
  check_bool "healthy button" true (contains (Editor.User_editor.render ed) "[fragile]");
  Store.quarantine_oid store (oid_of person) "bit rot (test)";
  let rendered = Editor.User_editor.render ed in
  check_bool "broken button marked" true (contains rendered "[!fragile]");
  Store.clear_quarantine store (oid_of person);
  check_bool "repair restores the button" true
    (contains (Editor.User_editor.render ed) "[fragile]")

(* -- browser ------------------------------------------------------------- *)

let browser_renders_quarantined_objects () =
  let store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let person = new_person vm "ghost" in
  let oid = oid_of person in
  Store.Session.set_root (Store.default_session store) "ghost" person;
  Store.quarantine_oid store oid "checksum mismatch (test)";
  let b = Browser.Ocb.create vm in
  check_output "reference renders as damaged"
    (Printf.sprintf "<quarantined @%d>" (Oid.to_int oid))
    (Browser.Ocb.display_value b person);
  let panel = Browser.Ocb.open_object b oid in
  check_bool "panel title degrades" true
    (contains
       (Browser.Ocb.entity_title b panel.Browser.Ocb.entity)
       (Printf.sprintf "<quarantined @%d>" (Oid.to_int oid)));
  let rows = Browser.Ocb.rows b panel in
  check_bool "a status row explains" true
    (List.exists
       (fun r -> contains r.Browser.Ocb.row_display "quarantined")
       rows);
  check_bool "the reason is shown" true
    (List.exists
       (fun r -> contains r.Browser.Ocb.row_display "checksum mismatch")
       rows);
  (* the census counts the quarantine *)
  let census = Browser.Render.census store in
  check_bool "census line" true (contains census "<quarantined>")

let suite =
  [
    test "getLink degrades to a BrokenLink instance" get_link_degrades_to_broken_link;
    test "paper-specified exceptions are kept" paper_exceptions_are_kept;
    test "prune clears dead registry entries" prune_clears_dead_entries;
    test "textual form splices a placeholder" placeholder_for_quarantined_target;
    test "unreadable links become a comment" comment_for_unreadable_link;
    test "the textual form has one generator" textual_form_has_one_generator;
    test "explain_error reads the readable spec" explain_error_reads_the_readable_spec;
    test "pages name an unreadable link" pages_name_the_unreadable_link;
    test "the editing form keeps the readable links" editing_form_keeps_readable_links;
    test "editor marks broken link buttons" editor_marks_broken_buttons;
    test "browser renders quarantined objects" browser_renders_quarantined_objects;
  ]
