(* Reachability-based garbage collection with weak-reference semantics.

   Mark phase: trace strong references from the root seed (named roots plus
   any extra pins supplied by the runtime, e.g. VM stack frames or static
   fields).  Weak cells are traced as objects but their targets are not.

   Weak phase: any live weak cell whose target died is cleared to Null —
   this is what lets the Figure 7 registry release hyper-programs once no
   user references remain.

   Sweep phase: dead entries are removed from the heap. *)

type stats = {
  live : int;
  swept : int;
  weak_cleared : int;
}

let pp_stats ppf { live; swept; weak_cleared } =
  Format.fprintf ppf "live=%d swept=%d weak_cleared=%d" live swept weak_cleared

(* Iterative marking with an explicit work list: store graphs can be
   arbitrarily deep (a million-element linked list is ordinary data), so
   recursion over the object graph would overflow the OCaml stack. *)
let mark heap seed =
  let marked = Oid.Table.create 1024 in
  let work = Stack.create () in
  let push oid =
    if (not (Oid.Table.mem marked oid)) && Heap.is_live heap oid then begin
      Oid.Table.replace marked oid ();
      Stack.push oid work
    end
  in
  List.iter push seed;
  while not (Stack.is_empty work) do
    let oid = Stack.pop work in
    List.iter push (Heap.strong_refs (Heap.get heap oid))
  done;
  marked

let reachable ?(extra_roots = []) heap roots =
  let seed = List.rev_append extra_roots (Roots.ref_oids roots) in
  let marked = mark heap seed in
  Oid.Table.fold (fun oid () acc -> Oid.Set.add oid acc) marked Oid.Set.empty

(* Sharded mark: each shard marks the closure of its own objects in
   parallel, exporting references that cross a shard boundary to the
   owning shard's outbox; rounds repeat on the main domain until no
   outbox delivers a new oid.  Domains only write their own marked table
   and outbox row, and the heap is read-only throughout, so the phase is
   race-free by partition.  The delivered cross-shard targets double as
   the per-shard remembered sets (live incoming references), which is
   what keeps the sweep itself per-shard.  Weak-clear and sweep run on
   the main domain: both mutate the shared heap, and each is one cheap
   linear pass. *)
let collect_sharded ~nshards ~shard_of ?(extra_roots = []) heap roots =
  let marked = Array.init nshards (fun _ -> Oid.Table.create 256) in
  let remembered = Array.make nshards Oid.Set.empty in
  let inbox = Array.make nshards [] in
  let seed = List.rev_append extra_roots (Roots.ref_oids roots) in
  List.iter
    (fun oid ->
      let s = shard_of oid in
      inbox.(s) <- oid :: inbox.(s))
    seed;
  let outbox = Array.init nshards (fun _ -> Array.make nshards []) in
  let pending = ref (seed <> []) in
  while !pending do
    Dpool.run nshards (fun k ->
        let mk = marked.(k) in
        let out = outbox.(k) in
        let work = Stack.create () in
        let push oid =
          let s = shard_of oid in
          if s = k then begin
            if (not (Oid.Table.mem mk oid)) && Heap.is_live heap oid then begin
              Oid.Table.replace mk oid ();
              Stack.push oid work
            end
          end
          else out.(s) <- oid :: out.(s)
        in
        List.iter push inbox.(k);
        while not (Stack.is_empty work) do
          let oid = Stack.pop work in
          List.iter push (Heap.strong_refs (Heap.get heap oid))
        done);
    (* merge outboxes into next-round inboxes on the main domain *)
    Array.fill inbox 0 nshards [];
    pending := false;
    for src = 0 to nshards - 1 do
      for dst = 0 to nshards - 1 do
        List.iter
          (fun oid ->
            if Heap.is_live heap oid then begin
              remembered.(dst) <- Oid.Set.add oid remembered.(dst);
              if not (Oid.Table.mem marked.(dst) oid) then begin
                inbox.(dst) <- oid :: inbox.(dst);
                pending := true
              end
            end)
          outbox.(src).(dst);
        outbox.(src).(dst) <- []
      done
    done
  done;
  let is_marked oid = Oid.Table.mem marked.(shard_of oid) oid in
  let weak_cleared = ref 0 in
  Heap.iter
    (fun oid entry ->
      match entry with
      | Heap.Weak cell when is_marked oid -> begin
        match cell.Heap.target with
        | Pvalue.Ref target when not (is_marked target) ->
          cell.Heap.target <- Pvalue.Null;
          incr weak_cleared
        | _ -> ()
      end
      | Heap.Weak _ | Heap.Record _ | Heap.Array _ | Heap.Str _ -> ())
    heap;
  let dead = ref [] in
  Heap.iter (fun oid _ -> if not (is_marked oid) then dead := oid :: !dead) heap;
  List.iter (Heap.remove heap) !dead;
  ( { live = Heap.size heap; swept = List.length !dead; weak_cleared = !weak_cleared },
    remembered )
