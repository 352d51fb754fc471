(* The trace ring and latency histograms: bounded, ordered, and a strict
   no-op while tracing is disabled. *)

open Pstore
open Obs_util

let disabled_tracing_is_a_noop () =
  let store = Store.create () in
  let obs = Store.obs store in
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| Pvalue.Int 0l |] in
  for i = 1 to 100 do
    Store.Session.set_field (Store.default_session store) a 0 (Pvalue.Int (Int32.of_int i))
  done;
  check_int "no events captured" 0 (List.length (Obs.events obs));
  check_bool "no latency recorded" true (Obs.latency obs Obs.Set = None);
  check_int "but every op still counted" 100 (Obs.count obs Obs.Set);
  (* record is also a no-op when disabled *)
  Obs.record obs Obs.Get 123.0;
  check_bool "record ignored while disabled" true (Obs.latency obs Obs.Get = None)

let ring_is_bounded_and_ordered () =
  let obs = Obs.create ~ring_capacity:8 () in
  Obs.set_enabled obs true;
  for i = 1 to 20 do
    Obs.record obs Obs.Get ~label:(string_of_int i) 1.0
  done;
  let evs = Obs.events obs in
  check_int "ring keeps the last 8" 8 (List.length evs);
  let labels = List.map (fun e -> e.Obs.label) evs in
  check_output "oldest surviving event" "13" (List.hd labels);
  check_output "newest event" "20" (List.nth labels 7);
  let seqs = List.map (fun e -> e.Obs.seq) evs in
  check_bool "sequence numbers are in order" true (seqs = List.sort compare seqs)

let zero_capacity_ring_keeps_histograms () =
  let obs = Obs.create ~ring_capacity:0 () in
  Obs.set_enabled obs true;
  Obs.record obs Obs.Get 5.0;
  check_int "no events with a zero ring" 0 (List.length (Obs.events obs));
  match Obs.latency obs Obs.Get with
  | Some l -> check_int "histogram still records" 1 l.Obs.timed
  | None -> Alcotest.fail "histogram must record with a zero-capacity ring"

let span_times_counts_and_survives_raise () =
  let obs = Obs.create () in
  Obs.set_enabled obs true;
  let v = Obs.span obs Obs.Compile ~label:"x" (fun () -> 42) in
  check_int "value passes through" 42 v;
  check_int "span counted" 1 (Obs.count obs Obs.Compile);
  (match Obs.latency obs Obs.Compile with
  | Some l -> check_int "span timed" 1 l.Obs.timed
  | None -> Alcotest.fail "span must time while tracing");
  (try ignore (Obs.span obs Obs.Compile (fun () -> failwith "boom") : int)
   with Failure _ -> ());
  check_int "raising span still counted" 2 (Obs.count obs Obs.Compile);
  (match Obs.latency obs Obs.Compile with
  | Some l -> check_int "raising span still timed" 2 l.Obs.timed
  | None -> Alcotest.fail "raising span must time");
  match Obs.events obs with
  | [ a; b ] ->
    check_output "label captured" "x" a.Obs.label;
    check_bool "durations are non-negative" true
      (a.Obs.duration_ns >= 0. && b.Obs.duration_ns >= 0.)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let latency_percentiles_are_ordered () =
  let obs = Obs.create () in
  Obs.set_enabled obs true;
  (* a known distribution: 1..100 ns *)
  for i = 1 to 100 do
    Obs.record obs Obs.Get (float_of_int i)
  done;
  match Obs.latency obs Obs.Get with
  | None -> Alcotest.fail "latency must be available"
  | Some l ->
    check_int "all samples timed" 100 l.Obs.timed;
    check_bool "p50 is the median" true (l.Obs.p50_ns = 50.);
    check_bool "p99 near the top" true (l.Obs.p99_ns = 99.);
    check_bool "max is the max" true (l.Obs.max_ns = 100.);
    check_bool "ordered" true (l.Obs.p50_ns <= l.Obs.p99_ns && l.Obs.p99_ns <= l.Obs.max_ns)

let reset_zeroes_everything () =
  let obs = Obs.create () in
  Obs.set_enabled obs true;
  Obs.record obs Obs.Get 1.0;
  Obs.incr obs Obs.Set;
  Obs.reset obs;
  check_int "counters zeroed" 0 (Obs.total obs);
  check_bool "histograms zeroed" true (Obs.latency obs Obs.Get = None);
  check_int "ring cleared" 0 (List.length (Obs.events obs));
  check_bool "tracing switch is kept" true (Obs.enabled obs)

let pp_event_is_readable () =
  let obs = Obs.create () in
  Obs.set_enabled obs true;
  Obs.record obs Obs.Image_save ~bytes:512 ~label:"img" 1500.0;
  match Obs.events obs with
  | [ e ] ->
    let s = Format.asprintf "%a" Obs.pp_event e in
    check_bool "names the op" true (contains s "image-save");
    check_bool "shows the bytes" true (contains s "512B");
    check_bool "shows the label" true (contains s "img")
  | _ -> Alcotest.fail "expected one event"

(* The cost of the instrumentation while tracing is off: the hot read
   [Store.Session.field] against the same work without the observability layer
   (the quarantine check plus the raw heap read).  Best-of-k interleaved
   rounds, so scheduler noise hits both sides alike.  Rounds are timed in
   process CPU time: `dune runtest` runs suites side by side, and a round
   preempted by a neighbouring suite must not count its time off the
   CPU (timed on the wall clock next to the crash suite, 6 of 25 runs
   failed on a 2-CPU host).  The bound is deliberately generous (2x, or
   at most 25 ns per op): it catches a clock read or an allocation
   sneaking onto the disabled path, not nanoseconds. *)
let disabled_overhead_is_bounded () =
  let store = Store.create () in
  check_bool "tracing starts off" false (Obs.enabled (Store.obs store));
  let oid = Store.Session.alloc_record (Store.default_session store) "Bench" [| Pvalue.Int 1l |] in
  let heap = Store.heap store in
  let baseline () =
    (match Store.quarantine_reason store oid with Some _ -> () | None -> ());
    ignore (Heap.field heap oid 0)
  in
  let instrumented () = ignore (Store.Session.field (Store.default_session store) oid 0) in
  let iters = 50_000 and rounds = 3 in
  let once f =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      f ()
    done;
    (Sys.time () -. t0) /. float_of_int iters *. 1e9
  in
  ignore (once baseline);
  ignore (once instrumented);
  let best_base = ref infinity and best_instr = ref infinity in
  for _ = 1 to rounds do
    best_base := Float.min !best_base (once baseline);
    best_instr := Float.min !best_instr (once instrumented)
  done;
  let ratio = !best_instr /. Float.max !best_base 1e-9 in
  if not (ratio <= 2.0 || !best_instr -. !best_base <= 25.0) then
    Alcotest.failf
      "tracing-off Store.Session.field %.1f ns vs raw read %.1f ns: %.2fx is over 2.0x and over 25 ns"
      !best_instr !best_base ratio

let suite =
  [
    test "disabled tracing is a no-op" disabled_tracing_is_a_noop;
    test "the ring is bounded and ordered" ring_is_bounded_and_ordered;
    test "a zero-capacity ring keeps histograms" zero_capacity_ring_keeps_histograms;
    test "span times, counts, and survives a raise" span_times_counts_and_survives_raise;
    test "latency percentiles are ordered" latency_percentiles_are_ordered;
    test "reset zeroes everything" reset_zeroes_everything;
    test "events print readably" pp_event_is_readable;
    test "tracing-off overhead is bounded" disabled_overhead_is_bounded;
  ]
