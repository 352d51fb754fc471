(* Persistent store: heap, roots, GC, weak references, stabilisation,
   referential integrity. *)

open Pstore
open Helpers

(* -- heap ------------------------------------------------------------------- *)

let heap_alloc_and_access () =
  let store = fresh_store () in
  let s = Store.Session.alloc_string (Store.default_session store) "hello" in
  let r = Store.Session.alloc_record (Store.default_session store) "Point" [| Pvalue.Int 1l; Pvalue.Int 2l |] in
  let a = Store.Session.alloc_array (Store.default_session store) "I" [| Pvalue.Int 10l |] in
  check_output "string" "hello" (Store.Session.get_string (Store.default_session store) s);
  check_output "class" "Point" (Store.Session.class_of (Store.default_session store) r);
  check_output "array class" "I[]" (Store.Session.class_of (Store.default_session store) a);
  Alcotest.(check bool) "field" true (Pvalue.equal (Store.Session.field (Store.default_session store) r 0) (Pvalue.Int 1l));
  Store.Session.set_field (Store.default_session store) r 1 (Pvalue.Int 42l);
  check_bool "set field" true (Pvalue.equal (Store.Session.field (Store.default_session store) r 1) (Pvalue.Int 42l));
  Store.Session.set_elem (Store.default_session store) a 0 (Pvalue.Int 7l);
  check_bool "set elem" true (Pvalue.equal (Store.Session.elem (Store.default_session store) a 0) (Pvalue.Int 7l));
  check_int "array length" 1 (Store.Session.array_length (Store.default_session store) a);
  check_int "size" 3 (Store.size store)

let heap_bounds_checked () =
  let store = fresh_store () in
  let r = Store.Session.alloc_record (Store.default_session store) "Point" [| Pvalue.Int 1l |] in
  let a = Store.Session.alloc_array (Store.default_session store) "I" [| Pvalue.Int 1l |] in
  let expect_heap_error f =
    match f () with
    | _ -> Alcotest.fail "expected Heap_error"
    | exception Heap.Heap_error _ -> ()
  in
  expect_heap_error (fun () -> Store.Session.field (Store.default_session store) r 1);
  expect_heap_error (fun () -> Store.Session.set_field (Store.default_session store) r (-1) Pvalue.Null);
  expect_heap_error (fun () -> Store.Session.elem (Store.default_session store) a 1);
  expect_heap_error (fun () -> Store.Session.get_record (Store.default_session store) a);
  expect_heap_error (fun () -> Store.Session.get_array (Store.default_session store) r);
  expect_heap_error (fun () -> Store.Session.get (Store.default_session store) (Oid.of_int 999999))

let oids_are_distinct () =
  let store = fresh_store () in
  let oids = List.init 100 (fun i -> Store.Session.alloc_string (Store.default_session store) (string_of_int i)) in
  let set = List.fold_left (fun acc oid -> Oid.Set.add oid acc) Oid.Set.empty oids in
  check_int "all distinct" 100 (Oid.Set.cardinal set)

(* -- roots ------------------------------------------------------------------- *)

let roots_basics () =
  let store = fresh_store () in
  let s = Store.Session.alloc_string (Store.default_session store) "x" in
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref s);
  Store.Session.set_root (Store.default_session store) "b" (Pvalue.Int 1l);
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Store.Session.root_names (Store.default_session store));
  (match Store.Session.root (Store.default_session store) "a" with
  | Some (Pvalue.Ref oid) -> check_bool "same oid" true (Oid.equal oid s)
  | _ -> Alcotest.fail "root a missing");
  Store.Session.remove_root (Store.default_session store) "a";
  check_bool "removed" true (Store.Session.root (Store.default_session store) "a" = None);
  Store.Session.set_root (Store.default_session store) "b" (Pvalue.Int 2l);
  check_bool "rebound" true (Store.Session.root (Store.default_session store) "b" = Some (Pvalue.Int 2l))

(* -- GC ------------------------------------------------------------------------ *)

let gc_collects_unreachable () =
  let store = fresh_store () in
  let live = Store.Session.alloc_string (Store.default_session store) "live" in
  let _dead = Store.Session.alloc_string (Store.default_session store) "dead" in
  Store.Session.set_root (Store.default_session store) "live" (Pvalue.Ref live);
  let stats = Store.gc store in
  check_int "swept" 1 stats.Gc.swept;
  check_int "live" 1 stats.Gc.live;
  check_bool "live survives" true (Store.Session.is_live (Store.default_session store) live)

let gc_traces_transitively () =
  let store = fresh_store () in
  let leaf = Store.Session.alloc_string (Store.default_session store) "leaf" in
  let mid = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Ref leaf |] in
  let top = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Ref mid |] in
  Store.Session.set_root (Store.default_session store) "top" (Pvalue.Ref top);
  let orphan = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Ref leaf |] in
  let stats = Store.gc store in
  check_int "one swept" 1 stats.Gc.swept;
  check_bool "leaf kept" true (Store.Session.is_live (Store.default_session store) leaf);
  check_bool "orphan swept" false (Store.Session.is_live (Store.default_session store) orphan)

let gc_handles_cycles () =
  let store = fresh_store () in
  let a = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Null |] in
  let b = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Ref a |] in
  Store.Session.set_field (Store.default_session store) a 0 (Pvalue.Ref b);
  (* cycle a <-> b, unreachable *)
  let stats = Store.gc store in
  check_int "cycle swept" 2 stats.Gc.swept;
  (* reachable cycle survives *)
  let c = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Null |] in
  let d = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Ref c |] in
  Store.Session.set_field (Store.default_session store) c 0 (Pvalue.Ref d);
  Store.Session.set_root (Store.default_session store) "c" (Pvalue.Ref c);
  let stats2 = Store.gc store in
  check_int "none swept" 0 stats2.Gc.swept

let gc_honours_pins () =
  let store = fresh_store () in
  let pinned = Store.Session.alloc_string (Store.default_session store) "pinned" in
  Store.add_pin store (fun () -> [ pinned ]);
  let stats = Store.gc store in
  check_int "nothing swept" 0 stats.Gc.swept;
  check_bool "pinned survives" true (Store.Session.is_live (Store.default_session store) pinned)

(* -- weak references -------------------------------------------------------------- *)

let weak_cleared_when_target_dies () =
  let store = fresh_store () in
  let target = Store.Session.alloc_string (Store.default_session store) "target" in
  let weak = Store.Session.alloc_weak (Store.default_session store) (Pvalue.Ref target) in
  Store.Session.set_root (Store.default_session store) "weak" (Pvalue.Ref weak);
  (* target reachable only weakly -> swept, cell cleared *)
  let stats = Store.gc store in
  check_int "weak cleared" 1 stats.Gc.weak_cleared;
  check_bool "target swept" false (Store.Session.is_live (Store.default_session store) target);
  check_bool "cell nulled" true ((Store.Session.get_weak (Store.default_session store) weak).Heap.target = Pvalue.Null)

let weak_kept_while_target_strongly_held () =
  let store = fresh_store () in
  let target = Store.Session.alloc_string (Store.default_session store) "target" in
  let weak = Store.Session.alloc_weak (Store.default_session store) (Pvalue.Ref target) in
  Store.Session.set_root (Store.default_session store) "weak" (Pvalue.Ref weak);
  Store.Session.set_root (Store.default_session store) "strong" (Pvalue.Ref target);
  let stats = Store.gc store in
  check_int "nothing cleared" 0 stats.Gc.weak_cleared;
  check_bool "target alive" true (Store.Session.is_live (Store.default_session store) target);
  (match (Store.Session.get_weak (Store.default_session store) weak).Heap.target with
  | Pvalue.Ref oid -> check_bool "still points" true (Oid.equal oid target)
  | _ -> Alcotest.fail "weak target lost");
  (* drop the strong root: next gc clears *)
  Store.Session.remove_root (Store.default_session store) "strong";
  let stats2 = Store.gc store in
  check_int "cleared now" 1 stats2.Gc.weak_cleared

let weak_does_not_keep_target_alive () =
  let store = fresh_store () in
  (* a weak cell is itself collectable when unreachable *)
  let target = Store.Session.alloc_string (Store.default_session store) "t" in
  let _weak = Store.Session.alloc_weak (Store.default_session store) (Pvalue.Ref target) in
  let stats = Store.gc store in
  check_int "both swept" 2 stats.Gc.swept

(* -- stabilisation ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "pstore_test" ".img" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let image_roundtrip () =
  with_temp_file (fun path ->
      let store = fresh_store () in
      let s = Store.Session.alloc_string (Store.default_session store) "persist me" in
      let r = Store.Session.alloc_record (Store.default_session store) "Pair" [| Pvalue.Ref s; Pvalue.Double 3.25 |] in
      let a = Store.Session.alloc_array (Store.default_session store) "LPair;" [| Pvalue.Ref r; Pvalue.Null |] in
      let w = Store.Session.alloc_weak (Store.default_session store) (Pvalue.Ref s) in
      Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
      Store.Session.set_root (Store.default_session store) "w" (Pvalue.Ref w);
      Store.Session.set_blob (Store.default_session store) "meta" "blob-bytes";
      Store.stabilise ~path store;
      let store2 = Store.open_file path in
      check_int "same size" (Store.size store) (Store.size store2);
      check_output "string preserved" "persist me" (Store.Session.get_string (Store.default_session store2) s);
      check_output "class preserved" "Pair" (Store.Session.class_of (Store.default_session store2) r);
      check_bool "field preserved" true
        (Pvalue.equal (Store.Session.field (Store.default_session store2) r 1) (Pvalue.Double 3.25));
      check_bool "blob preserved" true (Store.Session.blob (Store.default_session store2) "meta" = Some "blob-bytes");
      (match (Store.Session.get_weak (Store.default_session store2) w).Heap.target with
      | Pvalue.Ref oid -> check_bool "weak target preserved" true (Oid.equal oid s)
      | _ -> Alcotest.fail "weak lost");
      (* oids preserved verbatim: allocating continues from the next id *)
      let fresh = Store.Session.alloc_string (Store.default_session store2) "fresh" in
      check_bool "fresh oid distinct" false (List.mem fresh [ s; r; a; w ]))

(* v2 images localise damage: a flipped byte inside one object's payload
   quarantines that object on reopen (reads get a typed error, siblings
   stay readable), while corruption the per-entry frames cannot localise
   (the header) still fails the whole load. *)
let image_detects_corruption () =
  with_temp_file (fun path ->
      let store = fresh_store () in
      let victim = Store.Session.alloc_string (Store.default_session store) "sentinel-victim-payload" in
      let sibling = Store.Session.alloc_string (Store.default_session store) "healthy neighbour" in
      Store.Session.set_root (Store.default_session store) "sib" (Pvalue.Ref sibling);
      Store.stabilise ~path store;
      let read_image () =
        let ic = open_in_bin path in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        data
      in
      let write_image data =
        let oc = open_out_bin path in
        output_string oc data;
        close_out oc
      in
      let pristine = read_image () in
      (* flip a byte inside the victim's payload *)
      let needle = "sentinel-victim-payload" in
      let off =
        let rec find i =
          if i + String.length needle > String.length pristine then
            Alcotest.fail "sentinel not found in image"
          else if String.equal (String.sub pristine i (String.length needle)) needle then i
          else find (i + 1)
        in
        find 0
      in
      let corrupted = Bytes.of_string pristine in
      Bytes.set corrupted off (Char.chr (Char.code (Bytes.get corrupted off) lxor 0xff));
      write_image (Bytes.unsafe_to_string corrupted);
      let store2 = Store.open_file path in
      check_bool "victim quarantined" true (Store.is_quarantined store2 victim);
      check_int "only the victim" 1 (List.length (Store.quarantined store2));
      check_output "sibling readable" "healthy neighbour" (Store.Session.get_string (Store.default_session store2) sibling);
      (match Store.Session.get (Store.default_session store2) victim with
      | _ -> Alcotest.fail "expected Quarantined"
      | exception Quarantine.Quarantined _ -> ());
      (* header corruption cannot be localised: the load fails outright *)
      let headerless = Bytes.of_string pristine in
      Bytes.set headerless 0 '!';
      write_image (Bytes.unsafe_to_string headerless);
      match Store.open_file path with
      | _ -> Alcotest.fail "expected Image_error"
      | exception Image.Image_error _ -> ())

let image_rejects_bad_magic () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTASTORE-AT-ALL-0123456789";
      close_out oc;
      match Store.open_file path with
      | _ -> Alcotest.fail "expected Image_error"
      | exception Image.Image_error _ -> ())

let stabilise_requires_backing () =
  let store = fresh_store () in
  match Store.stabilise store with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* -- journalled durability ----------------------------------------------------------- *)

let with_store_files f =
  let path = Filename.temp_file "pstore_wal" ".img" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Journal.path_for path; path ^ ".tmp" ])
    (fun () -> f path)

let journalled_roundtrip () =
  with_store_files (fun path ->
      let store = fresh_store () in
      let s = Store.Session.alloc_string (Store.default_session store) "persist me" in
      Store.Session.set_root (Store.default_session store) "s" (Pvalue.Ref s);
      Store.stabilise ~path store;
      (* the first stabilise compacts: full image plus a fresh journal *)
      check_int "compacted once" 1 (Store.stats store).Store.compactions;
      Store.Session.set_root (Store.default_session store) "n" (Pvalue.Int 5l);
      Store.Session.set_blob (Store.default_session store) "b" "bytes";
      Store.stabilise store;
      (* the second only appends the two-record delta *)
      check_int "two records" 2 (Store.stats store).Store.journal_depth;
      check_int "still one compaction" 1 (Store.stats store).Store.compactions;
      Store.close store;
      let store2 = Store.open_file path in
      check_int "replayed" 2 (Store.stats store2).Store.journal_replayed;
      check_output "string preserved" "persist me" (Store.Session.get_string (Store.default_session store2) s);
      check_bool "root preserved" true (Store.Session.root (Store.default_session store2) "n" = Some (Pvalue.Int 5l));
      check_bool "blob preserved" true (Store.Session.blob (Store.default_session store2) "b" = Some "bytes");
      Integrity.check_exn store2;
      Store.close store2)

let journal_compaction_bounds_depth () =
  with_store_files (fun path ->
      let store = fresh_store () in
      Store.configure store { (Store.config store) with Store.Config.compaction_limit = 10 };
      Store.stabilise ~path store;
      for i = 1 to 50 do
        Store.Session.set_root (Store.default_session store) "x" (Pvalue.Int (Int32.of_int i));
        Store.stabilise store;
        check_bool "depth bounded by the limit" true
          ((Store.stats store).Store.journal_depth <= 10)
      done;
      check_bool "compacted periodically" true ((Store.stats store).Store.compactions > 1);
      Store.close store;
      let s2 = Store.open_file path in
      check_bool "final value durable" true (Store.Session.root (Store.default_session s2) "x" = Some (Pvalue.Int 50l));
      Store.close s2)

(* Journal ops are buffered only while the journal can use them.  A
   store that owes a full compaction — unbacked, or after a gc — writes
   that compaction from the heap, so a buffer would never be written. *)
let journalled_store () =
  Store.create ()

let unbacked_store_buffers_nothing () =
  let store = journalled_store () in
  for i = 1 to 1000 do
    Store.Session.set_root (Store.default_session store) "r" (Pvalue.Int (Int32.of_int i))
  done;
  check_int "nothing buffered" 0 (Store.stats store).Store.pending_ops

let writes_after_gc_ride_the_compaction () =
  with_store_files (fun path ->
      let store = journalled_store () in
      Store.stabilise ~path store;
      ignore (Store.gc store);
      for i = 1 to 10 do
        Store.Session.set_root (Store.default_session store) (Printf.sprintf "k%d" i) (Pvalue.Int (Int32.of_int i))
      done;
      check_int "nothing buffered after gc" 0 (Store.stats store).Store.pending_ops;
      let compactions = (Store.stats store).Store.compactions in
      Store.stabilise store;
      check_int "one compaction" (compactions + 1) (Store.stats store).Store.compactions;
      Store.close store;
      let s2 = Store.open_file path in
      for i = 1 to 10 do
        check_bool "write durable" true
          (Store.Session.root (Store.default_session s2) (Printf.sprintf "k%d" i) = Some (Pvalue.Int (Int32.of_int i)))
      done;
      Store.close s2)

let rollback_truncates_journal () =
  with_store_files (fun path ->
      let store = fresh_store () in
      let keep = Store.Session.alloc_string (Store.default_session store) "keep" in
      Store.Session.set_root (Store.default_session store) "keep" (Pvalue.Ref keep);
      Store.stabilise ~path store;
      Store.Session.set_root (Store.default_session store) "pre" (Pvalue.Int 1l);
      Store.stabilise store;
      let fp_before = Image.encode (Store.contents store) in
      let result =
        Store.with_rollback store (fun () ->
            Store.Session.set_root (Store.default_session store) "mid" (Pvalue.Int 2l);
            (* stabilising INSIDE the transaction appends journal records;
               the abort must take them back off the disk *)
            Store.stabilise store;
            ignore (Store.Session.alloc_string (Store.default_session store) "junk");
            Store.stabilise store;
            failwith "abort")
      in
      (match result with
      | Error (Failure _) -> ()
      | _ -> Alcotest.fail "expected abort");
      check_output "memory restored" fp_before (Image.encode (Store.contents store));
      (* the on-disk journal replays to the pre-transaction state *)
      let replica = Store.open_file path in
      check_output "disk replays to pre-transaction state" fp_before
        (Image.encode (Store.contents replica));
      check_bool "mid root not on disk" true (Store.Session.root (Store.default_session replica) "mid" = None);
      Store.close replica;
      (* and the survivor keeps journalling correctly after the abort *)
      Store.Session.set_root (Store.default_session store) "post" (Pvalue.Int 3l);
      Store.stabilise store;
      let s2 = Store.open_file path in
      check_bool "post-abort stabilise durable" true (Store.Session.root (Store.default_session s2) "post" = Some (Pvalue.Int 3l));
      check_bool "aborted root still gone" true (Store.Session.root (Store.default_session s2) "mid" = None);
      Integrity.check_exn s2;
      Store.close s2;
      Store.close store)

let rollback_restores_gc_and_stabilise () =
  with_store_files (fun path ->
      let store = fresh_store () in
      let junk = Store.Session.alloc_string (Store.default_session store) "junk" in
      Store.stabilise ~path store;
      let fp_before = Image.encode (Store.contents store) in
      let result =
        Store.with_rollback store (fun () ->
            (* the sweep removes [junk] behind the journal's back, so this
               stabilise compacts the swept store onto disk *)
            ignore (Store.gc store);
            Store.stabilise store;
            failwith "abort")
      in
      (match result with
      | Error (Failure _) -> ()
      | _ -> Alcotest.fail "expected abort");
      check_bool "swept object restored by the abort" true (Store.Session.is_live (Store.default_session store) junk);
      check_output "memory restored" fp_before (Image.encode (Store.contents store));
      let replica = Store.open_file path in
      check_output "disk reopens to the pre-transaction state" fp_before
        (Image.encode (Store.contents replica));
      check_bool "swept object back on disk" true (Store.Session.is_live (Store.default_session replica) junk);
      Store.close replica;
      Store.close store)

let rollback_compacts_over_limit () =
  with_store_files (fun path ->
      let store = fresh_store () in
      Store.configure store { (Store.config store) with Store.Config.compaction_limit = 0 };
      Store.stabilise ~path store;
      let compactions () = (Store.stats store).Store.compactions in
      let before = compactions () in
      let result =
        Store.with_rollback store (fun () ->
            Store.Session.set_root (Store.default_session store) "x" (Pvalue.Int 1l);
            (* over the limit: compacts exactly as a top-level stabilise does *)
            Store.stabilise store)
      in
      check_bool "committed" true (result = Ok ());
      check_int "compacted inside the transaction" (before + 1) (compactions ());
      check_int "journal reset" 0 (Store.stats store).Store.journal_depth;
      let replica = Store.open_file path in
      check_bool "committed root durable" true (Store.Session.root (Store.default_session replica) "x" = Some (Pvalue.Int 1l));
      Store.close replica;
      Store.close store)

(* -- integrity -------------------------------------------------------------------------- *)

let integrity_clean_store () =
  let store = fresh_store () in
  let s = Store.Session.alloc_string (Store.default_session store) "x" in
  Store.Session.set_root (Store.default_session store) "s" (Pvalue.Ref s);
  Alcotest.(check int) "no violations" 0 (List.length (Integrity.check store));
  Integrity.check_exn store

let integrity_detects_dangling () =
  let store = fresh_store () in
  let s = Store.Session.alloc_string (Store.default_session store) "x" in
  let r = Store.Session.alloc_record (Store.default_session store) "Holder" [| Pvalue.Ref s |] in
  Store.Session.set_root (Store.default_session store) "r" (Pvalue.Ref r);
  (* brutally remove s behind the store's back *)
  Heap.remove (Store.heap store) s;
  check_int "one violation" 1 (List.length (Integrity.check store));
  (match Integrity.check_exn store with
  | _ -> Alcotest.fail "expected Heap_error"
  | exception Heap.Heap_error _ -> ())

let integrity_detects_bad_root () =
  let store = fresh_store () in
  let s = Store.Session.alloc_string (Store.default_session store) "x" in
  Store.Session.set_root (Store.default_session store) "s" (Pvalue.Ref s);
  Heap.remove (Store.heap store) s;
  match Integrity.check store with
  | [ Integrity.Bad_root { name; _ } ] -> check_output "root name" "s" name
  | other -> Alcotest.failf "expected one Bad_root, got %d violations" (List.length other)

let suite =
  [
    test "heap alloc and access" heap_alloc_and_access;
    test "heap bounds are checked" heap_bounds_checked;
    test "oids are distinct" oids_are_distinct;
    test "roots basics" roots_basics;
    test "gc collects unreachable" gc_collects_unreachable;
    test "gc traces transitively" gc_traces_transitively;
    test "gc handles cycles" gc_handles_cycles;
    test "gc honours pins" gc_honours_pins;
    test "weak cleared when target dies" weak_cleared_when_target_dies;
    test "weak kept while strongly held" weak_kept_while_target_strongly_held;
    test "weak does not keep target alive" weak_does_not_keep_target_alive;
    test "image round trip" image_roundtrip;
    test "journalled round trip" journalled_roundtrip;
    test "compaction bounds the journal" journal_compaction_bounds_depth;
    test "an unbacked store buffers no journal ops" unbacked_store_buffers_nothing;
    test "writes after gc ride the next compaction" writes_after_gc_ride_the_compaction;
    test "rollback truncates the journal" rollback_truncates_journal;
    test "rollback restores a gc'd, stabilised store in memory and on disk"
      rollback_restores_gc_and_stabilise;
    test "over-limit stabilise inside a committed rollback compacts" rollback_compacts_over_limit;
    test "image detects corruption" image_detects_corruption;
    test "image rejects bad magic" image_rejects_bad_magic;
    test "stabilise requires a backing file" stabilise_requires_backing;
    test "integrity: clean store" integrity_clean_store;
    test "integrity: dangling reference" integrity_detects_dangling;
    test "integrity: bad root" integrity_detects_bad_root;
  ]

(* -- properties ---------------------------------------------------------------- *)

(* Random object graphs: build N records with random references, pick
   random roots. *)
type graph_spec = {
  nodes : int;
  edges : (int * int) list; (* from node, to node *)
  roots : int list;
}

let graph_gen =
  QCheck2.Gen.(
    let* nodes = int_range 1 40 in
    let* edges =
      list_size (int_range 0 80) (pair (int_range 0 (nodes - 1)) (int_range 0 (nodes - 1)))
    in
    let* roots = list_size (int_range 0 5) (int_range 0 (nodes - 1)) in
    return { nodes; edges; roots })

let build_graph store spec =
  let slots_of i = List.length (List.filter (fun (f, _) -> f = i) spec.edges) in
  let oids =
    Array.init spec.nodes (fun i ->
        Store.Session.alloc_record (Store.default_session store) "Node" (Array.make (max 1 (slots_of i)) Pvalue.Null))
  in
  let next_slot = Array.make spec.nodes 0 in
  List.iter
    (fun (f, t) ->
      Store.Session.set_field (Store.default_session store) oids.(f) next_slot.(f) (Pvalue.Ref oids.(t));
      next_slot.(f) <- next_slot.(f) + 1)
    spec.edges;
  List.iteri (fun i r -> Store.Session.set_root (Store.default_session store) (Printf.sprintf "r%d" i) (Pvalue.Ref oids.(r))) spec.roots;
  oids

(* Reference reachability computed naively. *)
let reachable_naive spec =
  let adj = Array.make spec.nodes [] in
  List.iter (fun (f, t) -> adj.(f) <- t :: adj.(f)) spec.edges;
  let seen = Array.make spec.nodes false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit adj.(i)
    end
  in
  List.iter visit spec.roots;
  seen

let prop_gc_matches_naive_reachability =
  QCheck2.Test.make ~name:"gc keeps exactly the reachable objects" ~count:200 graph_gen
    (fun spec ->
      let store = fresh_store () in
      let oids = build_graph store spec in
      ignore (Store.gc store);
      let expected = reachable_naive spec in
      let ok = ref true in
      Array.iteri
        (fun i oid -> if Store.Session.is_live (Store.default_session store) oid <> expected.(i) then ok := false)
        oids;
      !ok)

let prop_image_roundtrip_preserves_graph =
  QCheck2.Test.make ~name:"stabilise/recover preserves the heap exactly" ~count:100 graph_gen
    (fun spec ->
      let store = fresh_store () in
      let oids = build_graph store spec in
      let data = Image.encode { Image.heap = Store.heap store; roots = Store.roots store; blobs = Hashtbl.create 1; quarantine = Quarantine.create () } in
      let recovered = Image.decode data in
      Array.for_all
        (fun oid ->
          match Heap.find recovered.Image.heap oid, Heap.find (Store.heap store) oid with
          | Some (Heap.Record a), Some (Heap.Record b) ->
            a.Heap.class_name = b.Heap.class_name
            && Array.for_all2 Pvalue.equal a.Heap.fields b.Heap.fields
          | _ -> false)
        oids
      && Heap.size recovered.Image.heap = Heap.size (Store.heap store))

let prop_integrity_holds_after_gc =
  QCheck2.Test.make ~name:"integrity holds after gc" ~count:100 graph_gen (fun spec ->
      let store = fresh_store () in
      ignore (build_graph store spec);
      ignore (Store.gc store);
      Integrity.check store = [])

let props =
  [
    QCheck_alcotest.to_alcotest prop_gc_matches_naive_reachability;
    QCheck_alcotest.to_alcotest prop_image_roundtrip_preserves_graph;
    QCheck_alcotest.to_alcotest prop_integrity_holds_after_gc;
  ]

(* Pvalue binary codec round trip. *)
let pvalue_gen =
  QCheck2.Gen.(
    oneof
      [
        return Pvalue.Null;
        map (fun b -> Pvalue.Bool b) bool;
        map (fun n -> Pvalue.byte (n mod 128)) (int_range (-127) 127);
        map (fun n -> Pvalue.short n) (int_range (-32768) 32767);
        map (fun n -> Pvalue.char n) (int_range 0 0xffff);
        map (fun n -> Pvalue.Int n) int32;
        map (fun n -> Pvalue.Long n) int64;
        map (fun f -> Pvalue.Double f) float;
        map (fun n -> Pvalue.Ref (Oid.of_int (abs n))) int;
      ])

let prop_pvalue_roundtrip =
  QCheck2.Test.make ~name:"store values round-trip the binary codec" ~count:500 pvalue_gen
    (fun v ->
      let w = Codec.writer () in
      Pvalue.encode w v;
      let r = Codec.reader (Codec.contents w) in
      let back = Pvalue.decode r in
      Pvalue.equal v back && Codec.at_end r)

let props = props @ [ QCheck_alcotest.to_alcotest prop_pvalue_roundtrip ]

(* -- the one-shard layout ---------------------------------------------------------- *)

(* A private directory, so a test can list every file its store left. *)
let with_store_dir f =
  let dir = Filename.temp_dir "pstore_layout" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* One shard keeps the flat file names through every path that writes:
   stabilise, an over-limit compaction, gc, a rollback whose body
   stabilised, close and reopen.  Afterwards the directory holds the
   image and its journal — no manifest, no epoch files, no commit
   marker. *)
let one_shard_layout () =
  with_store_dir (fun dir ->
      let path = Filename.concat dir "store.img" in
      let store =
        Store.create
          ~config:
            {
              Store.Config.default with
              Store.Config.compaction_limit = 2;
              backing = Some path;
            }
          ()
      in
      let keep = Store.Session.alloc_string (Store.default_session store) "keep" in
      Store.Session.set_root (Store.default_session store) "keep" (Pvalue.Ref keep);
      ignore (Store.Session.alloc_string (Store.default_session store) "garbage");
      Store.stabilise store;
      let compactions = (Store.stats store).Store.compactions in
      for i = 1 to 4 do
        Store.Session.set_root (Store.default_session store) "n" (Pvalue.Int (Int32.of_int i))
      done;
      Store.stabilise store;
      check_bool "four ops over a limit of two compact" true
        ((Store.stats store).Store.compactions > compactions);
      check_int "gc swept the garbage" 1 (Store.gc store).Gc.swept;
      Store.stabilise store;
      (match
         Store.with_rollback store (fun () ->
             Store.Session.set_root (Store.default_session store) "aborted" (Pvalue.Int 0l);
             Store.stabilise store;
             failwith "abort")
       with
      | Error (Failure _) -> ()
      | _ -> Alcotest.fail "expected abort");
      Store.close store;
      let reopened = Store.open_file path in
      check_bool "last value reopens" true (Store.Session.root (Store.default_session reopened) "n" = Some (Pvalue.Int 4l));
      check_bool "aborted root stays gone" true (Store.Session.root (Store.default_session reopened) "aborted" = None);
      Store.close reopened;
      let expected = [ Filename.basename path; Filename.basename (Journal.path_for path) ] in
      Alcotest.(check (list string))
        "only the flat files" (List.sort compare expected)
        (List.sort compare (Array.to_list (Sys.readdir dir)));
      check_bool "no manifest at the store path" false (Manifest.is_manifest path))

(* Demotion needs a neighbour shard to keep serving: a one-shard store
   whose stabilise fails again and again stays healthy and writable. *)
let one_shard_never_demotes () =
  with_store_dir (fun dir ->
      let path = Filename.concat dir "store.img" in
      let store =
        Store.create
          ~config:
            {
              Store.Config.default with
              Store.Config.breaker = 1;
              backing = Some path;
            }
          ()
      in
      Store.Session.set_root (Store.default_session store) "a" (Pvalue.Int 0l);
      Store.stabilise store;
      for i = 1 to 3 do
        Store.Session.set_root (Store.default_session store) "a" (Pvalue.Int (Int32.of_int i));
        match Faults.with_fault Faults.Fsync_fails (fun () -> Store.stabilise store) with
        | Error (Faults.Fault_injected _) -> ()
        | _ -> Alcotest.fail "fault did not fire"
      done;
      check_bool "still healthy" true (Store.healthy store);
      check_int "no shard demoted" 0 (Store.stats store).Store.unhealthy_shards;
      Store.Session.set_root (Store.default_session store) "a" (Pvalue.Int 9l);
      Store.stabilise store;
      Store.close store;
      let reopened = Store.open_file path in
      check_bool "the write after the faults is durable" true
        (Store.Session.root (Store.default_session reopened) "a" = Some (Pvalue.Int 9l));
      Store.close reopened)

let layout =
  [
    test "journalled: one shard keeps flat files" one_shard_layout;
    test "one shard never demotes" one_shard_never_demotes;
  ]
