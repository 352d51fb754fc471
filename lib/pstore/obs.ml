(* Store observability: per-store monotonic counters (always on, one
   array increment per operation), latency histograms and a bounded
   trace ring (both gated by the tracing switch, so the disabled path
   never reads a clock).

   Latencies are kept as a bounded reservoir of recent samples per
   operation class rather than fixed buckets: percentiles are computed
   on demand by sorting a copy, which is plenty for a diagnostics path
   and keeps recording to one array store. *)

type op =
  | Get
  | Set
  | Alloc
  | Root_lookup
  | Stabilise
  | Journal_append
  | Compaction
  | Image_save
  | Image_load
  | Scrub_step
  | Retry
  | Quarantine_hit
  | Gc
  | Get_link
  | Compile
  | Transaction
  | Group_commit
  | Repair
  | Degraded_op
  | Session_commit
  | Conflict
  | Net_request
  | Net_error

let all_ops =
  [
    Get; Set; Alloc; Root_lookup; Stabilise; Journal_append; Compaction;
    Image_save; Image_load; Scrub_step; Retry; Quarantine_hit; Gc; Get_link;
    Compile; Transaction; Group_commit; Repair;
    Degraded_op; Session_commit; Conflict; Net_request; Net_error;
  ]

let op_index = function
  | Get -> 0
  | Set -> 1
  | Alloc -> 2
  | Root_lookup -> 3
  | Stabilise -> 4
  | Journal_append -> 5
  | Compaction -> 6
  | Image_save -> 7
  | Image_load -> 8
  | Scrub_step -> 9
  | Retry -> 10
  | Quarantine_hit -> 11
  | Gc -> 12
  | Get_link -> 13
  | Compile -> 14
  | Transaction -> 15
  | Group_commit -> 16
  | Repair -> 17
  | Degraded_op -> 18
  | Session_commit -> 19
  | Conflict -> 20
  | Net_request -> 21
  | Net_error -> 22

let n_ops = List.length all_ops

let op_name = function
  | Get -> "get"
  | Set -> "set"
  | Alloc -> "alloc"
  | Root_lookup -> "root-lookup"
  | Stabilise -> "stabilise"
  | Journal_append -> "journal-append"
  | Compaction -> "compaction"
  | Image_save -> "image-save"
  | Image_load -> "image-load"
  | Scrub_step -> "scrub-step"
  | Retry -> "retry"
  | Quarantine_hit -> "quarantine-hit"
  | Gc -> "gc"
  | Get_link -> "get-link"
  | Compile -> "compile"
  | Transaction -> "transaction"
  | Group_commit -> "group-commit"
  | Repair -> "repair"
  | Degraded_op -> "degraded-op"
  | Session_commit -> "session-commit"
  | Conflict -> "conflict"
  | Net_request -> "net-request"
  | Net_error -> "net-error"

type event = {
  seq : int;
  ev_op : op;
  label : string;
  oid : Oid.t option;
  bytes : int;
  duration_ns : float;
}

let pp_event ppf e =
  Format.fprintf ppf "#%d %-14s %8.0fns" e.seq (op_name e.ev_op) e.duration_ns;
  (match e.oid with Some oid -> Format.fprintf ppf " %a" Oid.pp oid | None -> ());
  if e.bytes > 0 then Format.fprintf ppf " %dB" e.bytes;
  if e.label <> "" then Format.fprintf ppf " %s" e.label

type latency = {
  timed : int;
  p50_ns : float;
  p99_ns : float;
  max_ns : float;
}

type snapshot = {
  at_total : int;
  final_counts : (op * int) list;
}

(* Bounded reservoir of the most recent durations for one op class. *)
type hist = {
  samples : float array;
  mutable filled : int;  (* valid samples, <= Array.length samples *)
  mutable next : int;  (* ring write position *)
  mutable timed : int;  (* total spans timed *)
  mutable max_ns : float;
}

let hist_capacity = 512

type t = {
  counters : int array;
  hists : hist array;
  ring : event array;  (* dummy-filled; [ring_len] entries valid *)
  mutable ring_len : int;
  mutable ring_next : int;
  mutable seq : int;
  mutable tracing : bool;
  mutable final : snapshot option;
}

let default_ring_capacity = 256

let dummy_event =
  { seq = 0; ev_op = Get; label = ""; oid = None; bytes = 0; duration_ns = 0. }

let fresh_hist () =
  { samples = Array.make hist_capacity 0.; filled = 0; next = 0; timed = 0; max_ns = 0. }

let create ?(ring_capacity = default_ring_capacity) () =
  if ring_capacity < 0 then invalid_arg "Obs.create: negative ring capacity";
  {
    counters = Array.make n_ops 0;
    hists = Array.init n_ops (fun _ -> fresh_hist ());
    ring = Array.make ring_capacity dummy_event;
    ring_len = 0;
    ring_next = 0;
    seq = 0;
    tracing = false;
    final = None;
  }

let enabled t = t.tracing
let set_enabled t on = t.tracing <- on

(* -- recording ------------------------------------------------------------ *)

let incr t op =
  let i = op_index op in
  Array.unsafe_set t.counters i (Array.unsafe_get t.counters i + 1)

(* CLOCK_MONOTONIC: a stepped wall clock must not record a negative or
   inflated span. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let push_event t ev =
  let cap = Array.length t.ring in
  if cap > 0 then begin
    t.ring.(t.ring_next) <- ev;
    t.ring_next <- (t.ring_next + 1) mod cap;
    if t.ring_len < cap then t.ring_len <- t.ring_len + 1
  end

let record t op ?oid ?(bytes = 0) ?(label = "") dur_ns =
  if t.tracing then begin
    let h = t.hists.(op_index op) in
    h.samples.(h.next) <- dur_ns;
    h.next <- (h.next + 1) mod Array.length h.samples;
    if h.filled < Array.length h.samples then h.filled <- h.filled + 1;
    h.timed <- h.timed + 1;
    if dur_ns > h.max_ns then h.max_ns <- dur_ns;
    t.seq <- t.seq + 1;
    push_event t { seq = t.seq; ev_op = op; label; oid; bytes; duration_ns = dur_ns }
  end

let span t op ?oid ?bytes ?label f =
  incr t op;
  if not t.tracing then f ()
  else begin
    let t0 = now_ns () in
    match f () with
    | v ->
      record t op ?oid ?bytes ?label (now_ns () -. t0);
      v
    | exception e ->
      record t op ?oid ?bytes ?label (now_ns () -. t0);
      raise e
  end

(* -- reading -------------------------------------------------------------- *)

let count t op = t.counters.(op_index op)

let counts t =
  List.filter_map
    (fun op ->
      let n = count t op in
      if n > 0 then Some (op, n) else None)
    all_ops

let total t = Array.fold_left ( + ) 0 t.counters

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

let latency t op =
  let h = t.hists.(op_index op) in
  if h.timed = 0 then None
  else begin
    let sorted = Array.sub h.samples 0 h.filled in
    Array.sort compare sorted;
    Some
      {
        timed = h.timed;
        p50_ns = percentile sorted 0.50;
        p99_ns = percentile sorted 0.99;
        max_ns = h.max_ns;
      }
  end

let events t =
  let cap = Array.length t.ring in
  List.init t.ring_len (fun i ->
      t.ring.((t.ring_next - t.ring_len + i + (2 * cap)) mod cap))

let clear_events t =
  t.ring_len <- 0;
  t.ring_next <- 0

(* -- lifecycle ------------------------------------------------------------ *)

let reset t =
  Array.fill t.counters 0 n_ops 0;
  Array.iteri (fun i _ -> t.hists.(i) <- fresh_hist ()) t.hists;
  clear_events t;
  t.seq <- 0;
  t.final <- None

let flush t =
  t.final <- Some { at_total = total t; final_counts = counts t };
  clear_events t;
  t.tracing <- false

let drop t =
  clear_events t;
  t.tracing <- false

let final_snapshot t = t.final
