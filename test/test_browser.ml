(* OCB browser (Section 5.3): panels, rows, navigation, roots access,
   display formats, sharing/identity, method invocation, rendering. *)

open Pstore
open Minijava
open Browser
open Helpers

let setup () =
  let store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let vangelis = new_person vm "vangelis" in
  let mary = new_person vm "mary" in
  ignore
    (Vm.call_static vm ~cls:"Person" ~name:"marry" ~desc:"(LPerson;LPerson;)V" [ vangelis; mary ]);
  Store.Session.set_root (Store.default_session store) "vangelis" vangelis;
  Store.Session.set_root (Store.default_session store) "mary" mary;
  (store, vm, Ocb.create vm, vangelis, mary)

let row_labels b panel = List.map (fun r -> r.Ocb.row_label) (Ocb.rows b panel)

let object_panel_rows () =
  let _store, _vm, b, vangelis, _ = setup () in
  let panel = Ocb.open_object b (oid_of vangelis) in
  Alcotest.(check (list string)) "rows" [ "class"; "name"; "spouse" ] (row_labels b panel);
  let rows = Ocb.rows b panel in
  let name_row = List.nth rows 1 in
  check_output "name display" "\"vangelis\"" name_row.Ocb.row_display;
  check_bool "name has location" true (name_row.Ocb.row_location <> None);
  let spouse_row = List.nth rows 2 in
  check_bool "spouse opens object" true
    (match spouse_row.Ocb.row_value with Some (Ocb.E_object _) -> true | _ -> false)

let navigation_opens_panels () =
  let _store, _vm, b, vangelis, mary = setup () in
  let panel = Ocb.open_object b (oid_of vangelis) in
  (* open the spouse row: lands on mary *)
  (match Ocb.open_row b panel 2 with
  | Some spouse_panel -> begin
    match spouse_panel.Ocb.entity with
    | Ocb.E_object oid -> check_bool "navigated to mary" true (Oid.equal oid (oid_of mary))
    | _ -> Alcotest.fail "expected object panel"
  end
  | None -> Alcotest.fail "row should open");
  check_int "two panels" 2 (List.length (Ocb.panels b));
  (* the selected row is remembered *)
  check_bool "selection recorded" true (panel.Ocb.selected = Some 2)

let class_panel_rows () =
  let _store, _vm, b, _, _ = setup () in
  let panel = Ocb.open_class b "Person" in
  let rows = Ocb.rows b panel in
  check_bool "extends Object" true
    (List.exists (fun r -> r.Ocb.row_label = "extends" && r.Ocb.row_display = "java.lang.Object") rows);
  check_bool "has marry as static method" true
    (List.exists
       (fun r -> r.Ocb.row_label = "static method" && contains r.Ocb.row_display "marry")
       rows);
  check_bool "has constructor" true
    (List.exists (fun r -> r.Ocb.row_label = "constructor") rows);
  (* open the class of an object panel: Display Class *)
  let obj_panel = Ocb.open_object b (oid_of (new_person (Ocb.vm b) "x")) in
  match Ocb.open_class_of b obj_panel with
  | Some cp -> check_bool "class panel" true (cp.Ocb.entity = Ocb.E_class "Person")
  | None -> Alcotest.fail "expected class panel"

let roots_panel () =
  let _store, _vm, b, _, _ = setup () in
  let panel = Ocb.open_roots b in
  let labels = row_labels b panel in
  check_bool "vangelis root" true (List.mem "vangelis" labels);
  check_bool "mary root" true (List.mem "mary" labels);
  check_bool "registry root" true (List.mem "hyper.registry" labels)

let display_format_customisation () =
  let _store, vm, b, vangelis, _ = setup () in
  (* custom one-line summary for Person *)
  Display_format.register (Ocb.formats b) ~class_name:"Person"
    {
      Display_format.default with
      Display_format.summary =
        Some
          (fun vm oid ->
            let name = Store.Session.field vm.Rt.session oid (Rt.field_slot vm "Person" "name") in
            "person " ^ Rt.ocaml_string vm name);
    };
  let panel = Ocb.open_object b (oid_of vangelis) in
  let rows = Ocb.rows b panel in
  let spouse_row = List.nth rows 2 in
  check_output "custom summary used" "person mary" spouse_row.Ocb.row_display;
  ignore vm

let hiding_superclass_fields () =
  let _store, vm, b, _, _ = setup () in
  compile_into vm
    [ "public class Sub extends Person { public int extra; public Sub() { super(\"s\"); } }" ];
  let sub = Vm.new_instance vm ~cls:"Sub" ~desc:"()V" [] in
  (* default: inherited fields visible *)
  let panel = Ocb.open_object b (oid_of sub) in
  check_bool "inherited name visible" true (List.mem "name" (row_labels b panel));
  (* with hiding: only own fields *)
  Display_format.register (Ocb.formats b) ~class_name:"Sub"
    { Display_format.default with Display_format.hide_superclass_fields = true };
  let labels = row_labels b panel in
  check_bool "inherited name hidden" false (List.mem "name" labels);
  check_bool "own field shown" true (List.mem "extra" labels)

let hidden_fields_list () =
  let _store, _vm, b, vangelis, _ = setup () in
  Display_format.register (Ocb.formats b) ~class_name:"Person"
    { Display_format.default with Display_format.hidden_fields = [ "spouse" ] };
  let panel = Ocb.open_object b (oid_of vangelis) in
  check_bool "spouse hidden" false (List.mem "spouse" (row_labels b panel))

let array_panels () =
  let _store, vm, b, _, _ = setup () in
  let arr =
    Store.Session.alloc_array vm.Rt.session "I" [| Pvalue.Int 10l; Pvalue.Int 20l |]
  in
  let panel = Ocb.open_object b arr in
  let rows = Ocb.rows b panel in
  check_int "length + 2 elements" 3 (List.length rows);
  check_output "length" "2" (List.hd rows).Ocb.row_display;
  check_bool "element location" true ((List.nth rows 1).Ocb.row_location <> None)

let string_panels () =
  let _store, vm, b, _, _ = setup () in
  let s = Store.Session.alloc_string vm.Rt.session "browse me" in
  let panel = Ocb.open_object b s in
  let rows = Ocb.rows b panel in
  check_bool "value row" true
    (List.exists (fun r -> r.Ocb.row_display = "\"browse me\"") rows)

let sharing_and_identity () =
  let store, vm, _b, vangelis, mary = setup () in
  ignore vm;
  (* vangelis is referenced by: root, mary.spouse -> inbound 2 *)
  check_bool "vangelis shared" true (Graph.inbound_count store (oid_of vangelis) >= 2);
  let shared = Graph.shared_objects store in
  check_bool "in shared set" true (Oid.Set.mem (oid_of vangelis) shared);
  (* path explanation *)
  match Graph.path_to store (oid_of mary) with
  | Some (Graph.From_root _ :: _) -> ()
  | Some [] | Some (_ :: _) | None -> Alcotest.fail "expected a root-anchored path"

let census_counts () =
  let store, _vm, _b, _, _ = setup () in
  let census = Graph.census store in
  (match List.assoc_opt "Person" census with
  | Some n -> check_int "two persons" 2 n
  | None -> Alcotest.fail "Person missing from census");
  check_bool "strings counted" true (List.mem_assoc "java.lang.String" census)

(* -- the census's class counts ------------------------------------------- *)

(* The heap keeps its class counts through every way an entry enters or
   leaves it; each case compares them with a walk. *)

let persons store = List.assoc_opt "Person" (Graph.census store)

let counts_after_gc () =
  let store, _vm, _b, _, _ = setup () in
  Alcotest.(check (option int)) "two persons" (Some 2) (persons store);
  Store.Session.remove_root (Store.default_session store) "vangelis";
  Store.Session.remove_root (Store.default_session store) "mary";
  ignore (Store.gc store);
  check_census "after a gc sweep" store;
  Alcotest.(check (option int)) "the swept class is gone" None (persons store)

let counts_after_abort () =
  let store = fresh_store () in
  let vm0 = Hyperprog.Transaction.fresh_vm store in
  compile_into vm0 [ person_source ];
  Store.Session.set_root (Store.default_session store) "zara" (new_person vm0 "zara");
  match
    Hyperprog.Transaction.transact store (fun vm ->
        ignore (new_person vm "ghost");
        failwith "abort")
  with
  | Hyperprog.Transaction.Committed _ -> Alcotest.fail "expected abort"
  | Hyperprog.Transaction.Aborted (_, vm) ->
    check_census "after a rollback" store;
    Alcotest.(check (option int)) "the ghost is rolled back" (Some 1) (persons store);
    ignore (new_person vm "later");
    check_census "after an insert that follows the rollback" store

let counts_after_replay () =
  with_store_file @@ fun path ->
  let store = Store.create () in
  Store.Session.set_root (Store.default_session store) "keep" (Pvalue.Ref (Store.Session.alloc_string (Store.default_session store) "kept"));
  Store.stabilise ~path store;
  Store.Session.set_root (Store.default_session store) "r" (Pvalue.Ref (Store.Session.alloc_record (Store.default_session store) "Base" [| Pvalue.Null |]));
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref (Store.Session.alloc_array (Store.default_session store) "int" [| Pvalue.Int 1l |]));
  Store.stabilise store;
  Store.crash store;
  let store = Store.open_file path in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  check_bool "the journal replayed" true ((Store.stats store).Store.journal_replayed > 0);
  check_census "after a journal replay" store;
  Alcotest.(check (list (pair string int)))
    "one of each" [ ("Base", 1); ("int[]", 1); ("java.lang.String", 1) ] (Graph.census store)

let counts_after_corruption () =
  let store, _vm, _b, vangelis, _ = setup () in
  Faults.corrupt_entry (Store.heap store) (oid_of vangelis);
  check_census "after a record corruption" store;
  Alcotest.(check (option int)) "one person left" (Some 1) (persons store);
  Alcotest.(check (option int)) "under its flipped class" (Some 1)
    (List.assoc_opt "Qerson" (Graph.census store))

let counts_after_evolve () =
  let store, vm = fresh_hyper_vm () in
  compile_into vm [ "public class Point { public int x; }" ];
  for i = 1 to 3 do
    Store.Session.set_root (Store.default_session store) (Printf.sprintf "p%d" i) (Vm.new_instance vm ~cls:"Point" ~desc:"()V" [])
  done;
  let r =
    Hyperprog.Evolution.evolve vm ~class_name:"Point"
      ~new_source:"public class Point { public int x; public int y; }" ()
  in
  check_int "three instances reshaped" 3 r.Hyperprog.Evolution.instances_updated;
  check_census "after an evolve" store;
  Alcotest.(check (option int)) "still three points" (Some 3)
    (List.assoc_opt "Point" (Graph.census store))

(* Minor words one census allocates over [n] instances of one class. *)
let census_words n =
  let store = Store.create () in
  for _ = 1 to n do
    ignore (Store.Session.alloc_record (Store.default_session store) "Item" [||])
  done;
  ignore (Graph.census store);
  let before = Stdlib.Gc.minor_words () in
  ignore (Sys.opaque_identity (Graph.census store));
  Stdlib.Gc.minor_words () -. before

(* A walk allocates per object; the counts allocate per class. *)
let census_cost_is_flat () =
  let small = census_words 1_000 and large = census_words 10_000 in
  check_bool
    (Printf.sprintf "minor words: %.0f over 1,000 objects, %.0f over 10,000" small large)
    true
    (Float.abs (large -. small) <= 16.)

let method_invocation () =
  let _store, _vm, b, vangelis, _ = setup () in
  let result =
    Ocb.invoke b ~cls:"Person" ~name:"getName" ~desc:"()Ljava.lang.String;"
      ~receiver:(Some vangelis)
  in
  check_output "invoked" "vangelis" (Rt.ocaml_string (Ocb.vm b) result)

let rendering () =
  let _store, _vm, b, vangelis, _ = setup () in
  ignore (Ocb.open_object b (oid_of vangelis));
  let text = Render.browser b in
  check_bool "title" true (contains text "Person@");
  check_bool "field row" true (contains text "name");
  check_bool "shared marker" true (contains text "*shared*");
  check_bool "location marker" true (contains text "[loc]")

let close_and_front () =
  let _store, _vm, b, vangelis, mary = setup () in
  let p1 = Ocb.open_object b (oid_of vangelis) in
  let p2 = Ocb.open_object b (oid_of mary) in
  check_bool "front is p2" true (Ocb.front b = Some p2);
  Ocb.bring_to_front b p1.Ocb.panel_id;
  check_bool "front is p1" true (Ocb.front b = Some p1);
  Ocb.close_panel b p1.Ocb.panel_id;
  check_bool "p1 closed" true (Ocb.front b = Some p2);
  check_int "one panel" 1 (List.length (Ocb.panels b))

let callbacks_fire () =
  let _store, _vm, b, vangelis, _ = setup () in
  let seen = ref [] in
  Ocb.on_open b (fun entity -> seen := entity :: !seen);
  ignore (Ocb.open_object b (oid_of vangelis));
  ignore (Ocb.open_class b "Person");
  check_int "two callbacks" 2 (List.length !seen)

let suite =
  [
    test "object panel rows" object_panel_rows;
    test "navigation opens panels" navigation_opens_panels;
    test "class panel rows" class_panel_rows;
    test "persistent roots panel" roots_panel;
    test "display format customisation" display_format_customisation;
    test "hiding superclass fields" hiding_superclass_fields;
    test "hidden field list" hidden_fields_list;
    test "array panels" array_panels;
    test "string panels" string_panels;
    test "sharing and identity" sharing_and_identity;
    test "store census" census_counts;
    test "census counts after a gc sweep" counts_after_gc;
    test "census counts after a transaction abort" counts_after_abort;
    test "census counts after a journal replay" counts_after_replay;
    test "census counts after a record corruption" counts_after_corruption;
    test "census counts after an evolve" counts_after_evolve;
    test "a census allocates the same on 1,000 and 10,000 objects" census_cost_is_flat;
    test "method invocation from the browser" method_invocation;
    test "text rendering" rendering;
    test "close and bring-to-front" close_and_front;
    test "open callbacks fire" callbacks_fire;
  ]

let props = []
