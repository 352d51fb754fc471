(* The online scrubber: incremental, budgeted passes over the heap that
   verify per-object checksums and reference health while the store keeps
   serving.

   Checksums are trust-on-first-scan: the store does not pay a hash on
   every mutation (mutating an object just invalidates its recorded CRC);
   instead the scrubber *primes* the CRC of any object it has not seen
   since its last mutation, and *verifies* objects whose recorded CRC is
   still current.  A verified mismatch means the object changed without
   the store noticing — memory corruption — and the object is
   quarantined.  Reference scanning quarantines the *target* of any
   dangling strong reference, so later reads of the hole get a typed
   [Quarantined] error instead of a crash.

   Each [step] scans at most [budget] objects, resuming where the last
   step stopped; a pass ends when the queue drains, and the next step
   starts a fresh pass over a fresh snapshot of the oids. *)

type state = {
  mutable queue : Oid.t list; (* oids left in the current pass *)
  mutable passes : int; (* completed full passes *)
  (* lifetime totals *)
  mutable scanned : int;
  mutable verified : int;
  mutable primed : int;
  mutable quarantined : int;
  mutable ref_errors : int;
}

type report = {
  scanned : int;
  verified : int;
  primed : int;
  newly_quarantined : (Oid.t * string) list;
  pass_complete : bool;
}

let create () =
  { queue = []; passes = 0; scanned = 0; verified = 0; primed = 0; quarantined = 0; ref_errors = 0 }

let passes state = state.passes
let pending state = List.length state.queue

(* One progress record for several scrubbers: the counts and the queue
   add up, and a pass is complete once every scrubber has completed it. *)
let merge states =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 states in
  {
    queue = List.concat_map (fun s -> s.queue) states;
    passes = List.fold_left (fun acc s -> min acc s.passes) max_int states;
    scanned = sum (fun s -> s.scanned);
    verified = sum (fun s -> s.verified);
    primed = sum (fun s -> s.primed);
    quarantined = sum (fun s -> s.quarantined);
    ref_errors = sum (fun s -> s.ref_errors);
  }

let pp_progress ppf state =
  Format.fprintf ppf "pass %d (%d queued); scanned %d, verified %d, primed %d, quarantined %d, ref errors %d"
    state.passes (List.length state.queue) state.scanned state.verified state.primed
    state.quarantined state.ref_errors

let step state ~heap ~crcs ~quarantine ~reseed ~foreign ~budget =
  if budget <= 0 then invalid_arg "Scrub.step: budget must be positive";
  if state.queue = [] then state.queue <- reseed ();
  let newly = ref [] in
  let quarantine_oid oid reason =
    Quarantine.add quarantine oid reason;
    Oid.Table.remove crcs oid;
    state.quarantined <- state.quarantined + 1;
    newly := (oid, reason) :: !newly
  in
  let scanned = ref 0 in
  let verified = ref 0 in
  let primed = ref 0 in
  while !scanned < budget && state.queue <> [] do
    let oid, rest =
      match state.queue with
      | oid :: rest -> (oid, rest)
      | [] -> assert false
    in
    state.queue <- rest;
    incr scanned;
    if not (Quarantine.mem quarantine oid) then begin
      match Heap.find heap oid with
      | None -> () (* swept since the pass started *)
      | Some entry -> begin
        let crc = Image.entry_crc entry in
        (match Oid.Table.find_opt crcs oid with
        | None ->
          Oid.Table.replace crcs oid crc;
          incr primed
        | Some recorded when Int32.equal recorded crc -> incr verified
        | Some recorded ->
          quarantine_oid oid
            (Printf.sprintf "checksum mismatch (in-memory): recorded %ld, computed %ld" recorded
               crc));
        (* Reference health: quarantine the target of any dangling
           reference so reads of the hole degrade instead of crashing.
           A dangling weak target is equally a violation — GC clears
           weak cells in the same pass that sweeps their targets. *)
        if not (Quarantine.mem quarantine oid) then begin
          let check_target target =
            if not (Heap.is_live heap target) then begin
              if foreign target then begin
                (* the target lives in another shard, whose quarantine
                   this step does not own: just report it — the store
                   routes the quarantine to the owning shard *)
                state.ref_errors <- state.ref_errors + 1;
                newly :=
                  (target, Printf.sprintf "dangling target of %s" (Oid.to_string oid))
                  :: !newly
              end
              else if not (Quarantine.mem quarantine target) then begin
                state.ref_errors <- state.ref_errors + 1;
                quarantine_oid target
                  (Printf.sprintf "dangling target of %s" (Oid.to_string oid))
              end
            end
          in
          List.iter check_target (Heap.strong_refs entry);
          match entry with
          | Heap.Weak { Heap.target = Pvalue.Ref target } -> check_target target
          | _ -> ()
        end
      end
    end
  done;
  state.scanned <- state.scanned + !scanned;
  state.verified <- state.verified + !verified;
  state.primed <- state.primed + !primed;
  let pass_complete = state.queue = [] in
  if pass_complete then state.passes <- state.passes + 1;
  {
    scanned = !scanned;
    verified = !verified;
    primed = !primed;
    newly_quarantined = List.rev !newly;
    pass_complete;
  }
