(* Additional store behaviours: blobs, repeated stabilisation cycles,
   backing-path management, GC statistics, and the graph analyses. *)

open Pstore
open Helpers

let blob_lifecycle () =
  let store = fresh_store () in
  check_bool "absent" true (Store.Session.blob (Store.default_session store) "k" = None);
  Store.Session.set_blob (Store.default_session store) "k" "v1";
  check_bool "present" true (Store.Session.blob (Store.default_session store) "k" = Some "v1");
  Store.Session.set_blob (Store.default_session store) "k" "v2";
  check_bool "replaced" true (Store.Session.blob (Store.default_session store) "k" = Some "v2");
  Store.Session.set_blob (Store.default_session store) "a" "x";
  Alcotest.(check (list string)) "keys sorted" [ "a"; "k" ] (Store.Session.blob_keys (Store.default_session store));
  Store.Session.remove_blob (Store.default_session store) "k";
  check_bool "removed" true (Store.Session.blob (Store.default_session store) "k" = None)

let binary_blobs_roundtrip () =
  let store = fresh_store () in
  let data = String.init 512 (fun i -> Char.chr (i mod 256)) in
  Store.Session.set_blob (Store.default_session store) "bin" data;
  let path = Filename.temp_file "blob" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.stabilise ~path store;
      let store2 = Store.open_file path in
      check_bool "binary blob intact" true (Store.Session.blob (Store.default_session store2) "bin" = Some data))

let repeated_stabilise_cycles () =
  let path = Filename.temp_file "cycles" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let store = ref (fresh_store ()) in
      Store.configure !store { (Store.config !store) with Store.Config.backing = Some path };
      for round = 1 to 5 do
        let s = Store.Session.alloc_string (Store.default_session !store) (Printf.sprintf "round%d" round) in
        Store.Session.set_root (Store.default_session !store) (Printf.sprintf "r%d" round) (Pvalue.Ref s);
        Store.stabilise !store;
        store := Store.open_file path
      done;
      check_int "five roots accumulated" 5 (List.length (Store.Session.root_names (Store.default_session !store)));
      Integrity.check_exn !store)

let backing_path_is_sticky () =
  let p1 = Filename.temp_file "stick1" ".img" in
  let p2 = Filename.temp_file "stick2" ".img" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ p1; p2 ])
    (fun () ->
      let store = fresh_store () in
      Store.stabilise ~path:p1 store;
      check_bool "backing recorded" true (Store.backing store = Some p1);
      ignore (Store.Session.alloc_string (Store.default_session store) "more");
      (* no ~path: goes to the recorded backing *)
      Store.stabilise store;
      let recovered = Store.open_file p1 in
      check_int "second stabilise landed in p1" (Store.size store) (Store.size recovered);
      (* explicit ~path rebinds *)
      Store.stabilise ~path:p2 store;
      check_bool "rebound" true (Store.backing store = Some p2))

let stats_track_activity () =
  let store = fresh_store () in
  let before = Store.stats store in
  ignore (Store.gc store);
  ignore (Store.gc store);
  let path = Filename.temp_file "stats" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.stabilise ~path store;
      let after = Store.stats store in
      check_int "gc counted" (before.Store.gc_count + 2) after.Store.gc_count;
      check_int "stabilise counted" (before.Store.stabilise_count + 1) after.Store.stabilise_count;
      check_int "live zero" 0 after.Store.live;
      (* a snapshot-mode store has no journal activity to report *)
      check_int "no journal" 0 after.Store.journal_depth;
      check_int "nothing replayed" 0 after.Store.journal_replayed)

let gc_stats_sum () =
  let store = fresh_store () in
  let keep = Store.Session.alloc_string (Store.default_session store) "keep" in
  Store.Session.set_root (Store.default_session store) "keep" (Pvalue.Ref keep);
  for _ = 1 to 10 do
    ignore (Store.Session.alloc_string (Store.default_session store) "junk")
  done;
  let stats = Store.gc store in
  check_int "live" 1 stats.Gc.live;
  check_int "swept" 10 stats.Gc.swept

let graph_unreachable_has_no_path () =
  let store = fresh_store () in
  let orphan = Store.Session.alloc_string (Store.default_session store) "orphan" in
  check_bool "no path" true (Browser.Graph.path_to store orphan = None)

let graph_inbound_counts_roots () =
  let store = fresh_store () in
  let s = Store.Session.alloc_string (Store.default_session store) "shared" in
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref s);
  Store.Session.set_root (Store.default_session store) "b" (Pvalue.Ref s);
  check_int "two roots count" 2 (Browser.Graph.inbound_count store s);
  check_bool "in shared set" true (Pstore.Oid.Set.mem s (Browser.Graph.shared_objects store))

let deep_graph_gc_is_iterative_safe () =
  (* A million-deep chain must not blow the OCaml stack during marking. *)
  let store = fresh_store () in
  let rec build n tail =
    if n = 0 then tail
    else build (n - 1) (Pvalue.Ref (Store.Session.alloc_record (Store.default_session store) "Node" [| tail |]))
  in
  let head = build 1_000_000 Pvalue.Null in
  Store.Session.set_root (Store.default_session store) "head" head;
  let stats = Store.gc store in
  check_int "all live" 1_000_000 stats.Gc.live

let suite =
  [
    test "blob lifecycle" blob_lifecycle;
    test "binary blobs round trip" binary_blobs_roundtrip;
    test "repeated stabilise/reopen cycles" repeated_stabilise_cycles;
    test "backing path is sticky and rebindable" backing_path_is_sticky;
    test "stats track gc and stabilise" stats_track_activity;
    test "gc stats sum correctly" gc_stats_sum;
    test "graph: unreachable object has no path" graph_unreachable_has_no_path;
    test "graph: roots contribute to sharing" graph_inbound_counts_roots;
    test "gc survives a million-deep chain" deep_graph_gc_is_iterative_safe;
  ]

let props = []
