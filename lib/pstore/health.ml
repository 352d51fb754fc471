(* Per-shard health tracking: the fault-domain state machine.

   Each shard of a sharded store carries one tracker.  The state moves

     Healthy --(breaker trips / salvage-heavy open)--> Degraded
     Healthy --(image unreadable at open)-----------> Offline
     Degraded/Offline --(Store.repair)--------------> Healthy

   [failures] counts *consecutive* exhausted transient I/O failures:
   any successful I/O on the shard resets it, so one flaky write never
   trips the breaker — only a run of them. *)

type state =
  | Healthy
  | Degraded of string
  | Offline of string

type t = {
  mutable state : state;
  failures : int Atomic.t; (* consecutive exhausted transient failures *)
  trips : int Atomic.t; (* circuit-breaker demotions *)
  degraded_reads : int Atomic.t; (* reads served while not healthy *)
  refused_writes : int Atomic.t; (* writes rejected with Shard_degraded *)
  repairs : int Atomic.t;
}

let create () =
  {
    state = Healthy;
    failures = Atomic.make 0;
    trips = Atomic.make 0;
    degraded_reads = Atomic.make 0;
    refused_writes = Atomic.make 0;
    repairs = Atomic.make 0;
  }

let state t = t.state

let healthy t =
  match t.state with
  | Healthy -> true
  | Degraded _ | Offline _ -> false

let state_name = function
  | Healthy -> "healthy"
  | Degraded _ -> "degraded"
  | Offline _ -> "offline"

let describe = function
  | Healthy -> "healthy"
  | Degraded reason -> "degraded: " ^ reason
  | Offline reason -> "offline: " ^ reason

(* Demotion never clobbers a harder state: an offline shard stays
   offline until repaired, whatever the breaker sees meanwhile. *)
let degrade t reason =
  match t.state with
  | Healthy ->
    t.state <- Degraded reason;
    Atomic.incr t.trips
  | Degraded _ | Offline _ -> ()

let offline t reason =
  match t.state with
  | Healthy | Degraded _ ->
    t.state <- Offline reason;
    Atomic.incr t.trips
  | Offline _ -> ()

let promote t =
  if not (healthy t) then Atomic.incr t.repairs;
  t.state <- Healthy;
  Atomic.set t.failures 0

(* Failure accounting, fed by shard I/O. *)
let note_failure t = Atomic.incr t.failures
let note_ok t = if Atomic.get t.failures <> 0 then Atomic.set t.failures 0
let note_degraded_read t = Atomic.incr t.degraded_reads
let note_refused_write t = Atomic.incr t.refused_writes
let failures t = Atomic.get t.failures
let trips t = Atomic.get t.trips
let degraded_reads t = Atomic.get t.degraded_reads
let refused_writes t = Atomic.get t.refused_writes
let repairs t = Atomic.get t.repairs
