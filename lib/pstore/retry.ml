(* Bounded retry with full-jitter exponential backoff for transient I/O
   failures.

   Only exceptions that plausibly denote a transient environmental
   failure are retried: injected faults (the test stand-in for flaky
   media), [Sys_error] and [Unix_error] (EINTR/EAGAIN storms, a full
   disk that drains).  Logic errors — [Invalid_argument], decode errors,
   integrity violations — propagate immediately: retrying them would
   only repeat the bug.

   Backoff is full jitter: each delay is drawn uniformly from
   [0, min (max_delay, base_delay * 2^n)], so a herd of retriers does
   not re-collide on the same schedule, and the cap bounds the sleep
   whatever the retry count.  [deadline] bounds the whole run: once the
   elapsed time plus the next delay would cross it, the retry budget is
   treated as exhausted even if attempts remain.

   Every retried operation must be idempotent under re-execution.
   Callers make non-idempotent I/O (journal appends) idempotent by
   truncating back to a savepoint from [on_retry] before the next
   attempt.  [on_exhausted] fires once when the budget runs out — the
   store's circuit breaker counts these per shard and demotes a shard
   whose failures keep exhausting the budget. *)

type policy = {
  retries : int; (* extra attempts after the first failure *)
  base_delay : float; (* seconds; doubles per retry (before jitter) *)
  max_delay : float; (* backoff cap *)
  jitter : bool; (* full jitter: draw uniformly from [0, capped delay] *)
  deadline : float; (* seconds for the whole run; [infinity] = unbounded *)
}

let default_policy =
  { retries = 3; base_delay = 0.001; max_delay = 0.05; jitter = true; deadline = 1.0 }

(* The I/O classes a store threads its one retry policy through; each
   class names the retries it absorbed in [counters]. *)
type io_class =
  | Stabilise
  | Image_load
  | Image_save
  | Journal_append
  | Marker
  | Compaction

let class_name = function
  | Stabilise -> "stabilise"
  | Image_load -> "image-load"
  | Image_save -> "image-save"
  | Journal_append -> "journal-append"
  | Marker -> "marker"
  | Compaction -> "compaction"

type stats = {
  attempts : int;
  retries : int;
  absorbed : int; (* operations that failed then eventually succeeded *)
  exhausted : int; (* operations that failed even after all retries *)
}

let attempts_c = ref 0
let retries_c = ref 0
let absorbed_c = ref 0
let exhausted_c = ref 0

(* Per-label retry counters, for `shell health`. *)
let by_label : (string, int) Hashtbl.t = Hashtbl.create 8

let stats () =
  {
    attempts = !attempts_c;
    retries = !retries_c;
    absorbed = !absorbed_c;
    exhausted = !exhausted_c;
  }

let reset_stats () =
  attempts_c := 0;
  retries_c := 0;
  absorbed_c := 0;
  exhausted_c := 0;
  Hashtbl.reset by_label

let counters () =
  let l = Hashtbl.fold (fun label n acc -> (label, n) :: acc) by_label [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let bump_label label =
  Hashtbl.replace by_label label (1 + Option.value ~default:0 (Hashtbl.find_opt by_label label))

let transient = function
  | Faults.Fault_injected _ | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

let delay_for policy n =
  let cap = Float.min policy.max_delay (policy.base_delay *. (2. ** float_of_int n)) in
  if cap <= 0. then 0. else if policy.jitter then Random.float cap else cap

let run ?(policy = default_policy) ?(on_retry = fun _ _ -> ()) ?(on_exhausted = fun _ -> ())
    ?obs ~label f =
  let started = Monotonic_clock.now () in
  let give_up e =
    if transient e then begin
      incr exhausted_c;
      (try on_exhausted e with _ -> ())
    end;
    raise e
  in
  let rec attempt n =
    incr attempts_c;
    match f () with
    | v ->
      if n > 0 then incr absorbed_c;
      v
    | exception e when transient e && n < policy.retries ->
      let delay = delay_for policy n in
      (* The deadline bounds the whole run: if sleeping would cross it,
         the budget is exhausted now, not one nap later. *)
      let elapsed = Int64.to_float (Int64.sub (Monotonic_clock.now ()) started) /. 1e9 in
      if elapsed +. delay > policy.deadline then give_up e
      else begin
        incr retries_c;
        (match obs with Some o -> Obs.incr o Obs.Retry | None -> ());
        bump_label label;
        (* A broken retry observer must not turn a retryable failure
           into a fatal one. *)
        (try on_retry (n + 1) e with _ -> ());
        if delay > 0. then Unix.sleepf delay;
        attempt (n + 1)
      end
    | exception e -> give_up e
  in
  attempt 0
