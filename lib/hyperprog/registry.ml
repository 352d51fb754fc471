(* The hyper-program registry (Figure 7): a password-protected, persistent
   vector of WEAK references to every hyper-program that has been
   translated and compiled.

   The weak references are the paper's JDK 1.2 plan, implemented here: a
   registered hyper-program can still be garbage collected once no user
   references remain, yet while it lives, compiled textual forms can reach
   its hyper-linked entities through getLink.  Note that a live
   hyper-program strongly references its HyperLinkHP instances, which
   strongly reference the linked entities — so the entities stay reachable
   as long as either the hyper-program or the compiled form's user keeps
   them. *)

open Pstore
open Minijava

let root_name = "hyper.registry"

(* The password is "built into the system" (Section 4.2). *)
let built_in_password = "passwd"

let bad_password () =
  Rt.jerror "java.lang.SecurityException" "wrong password for the hyper-program registry"

let field vm oid name = Store.field Rt.(vm.store) oid (Rt.field_slot vm Hyper_src.registry_class name)

let set_field vm oid name v =
  Store.set_field Rt.(vm.store) oid (Rt.field_slot vm Hyper_src.registry_class name) v

(* -- getLink memoisation ---------------------------------------------------

   Compiled textual forms call getLink on every hyper-link dereference,
   and the resolution walks the registry object, a weak cell, the
   hyper-program's storage form and the link's health checks — a dozen
   store reads for an answer that almost never changes.  A bounded
   per-store memo caches the full [try_get_link] result per (hp, link).

   Invalidation is two-tier.  Registry-API mutations ([add_hp], [prune])
   flush explicitly.  Everything that can change an answer WITHOUT going
   through this module — quarantine add/clear (operator or scrubber), a
   GC sweep clearing weak targets, transaction rollback, evolution's
   in-place instance surgery — bumps [Store.invalidation_epoch], which is
   revalidated before every memo read.  Storage forms are immutable after
   creation (editing builds a fresh instance), so a cached link list
   cannot go stale behind our back.  Raw field writes to the registry
   object itself (not expressible through this module's API) are the one
   untracked path. *)

type memo_stats = {
  hits : int;
  misses : int;
  entries : int;
  capacity : int;
}

type memo = {
  mutable m_enabled : bool;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_epoch : int; (* Store.invalidation_epoch at last validation *)
  m_table : (int * int, (Pvalue.t, Failure.t) result) Hashtbl.t;
  mutable m_password : string option; (* the registry password, as last read *)
  m_capacity : int;
}

let memo_capacity = 512
let memo_key : memo Props.key = Props.new_key ()

let memo_of vm =
  let store = Rt.(vm.store) in
  Props.get_or_create (Store.props store) memo_key (fun () ->
      {
        m_enabled = true;
        m_hits = 0;
        m_misses = 0;
        m_epoch = Store.invalidation_epoch store;
        m_table = Hashtbl.create 64;
        m_password = None;
        m_capacity = memo_capacity;
      })

let memo_flush m =
  Hashtbl.reset m.m_table;
  m.m_password <- None

(* Flush when a side channel (quarantine, gc, rollback, mark_dirty)
   invalidated reads since the memo was last used. *)
let memo_validate vm m =
  let epoch = Store.invalidation_epoch Rt.(vm.store) in
  if epoch <> m.m_epoch then begin
    memo_flush m;
    m.m_epoch <- epoch
  end

let clear_memo vm = memo_flush (memo_of vm)
let memo_enabled vm = (memo_of vm).m_enabled

let set_memo_enabled vm flag =
  let m = memo_of vm in
  if not flag then memo_flush m;
  m.m_enabled <- flag

let memo_stats vm =
  let m = memo_of vm in
  {
    hits = m.m_hits;
    misses = m.m_misses;
    entries = Hashtbl.length m.m_table;
    capacity = m.m_capacity;
  }

(* Get or create the registry object rooted at [root_name]. *)
let ensure vm =
  let store = Rt.(vm.store) in
  match Store.root store root_name with
  | Some (Pvalue.Ref oid) -> oid
  | Some _ | None ->
    let reg = Rt.alloc_object vm Hyper_src.registry_class in
    let oid = match reg with Pvalue.Ref oid -> oid | _ -> assert false in
    set_field vm oid "password" (Rt.jstring vm built_in_password);
    let arr =
      Store.alloc_array store "Ljava.lang.Object;" (Array.make 8 Pvalue.Null)
    in
    set_field vm oid "programs" (Pvalue.Ref arr);
    set_field vm oid "count" (Pvalue.Int 0l);
    Store.set_root store root_name (Pvalue.Ref oid);
    oid

let read_password vm =
  let reg = ensure vm in
  match field vm reg "password" with
  | Pvalue.Ref soid -> Some (Store.get_string Rt.(vm.store) soid)
  | _ -> None

let check_password_m vm m password =
  let stored =
    if m.m_enabled then begin
      match m.m_password with
      | Some _ as s -> s
      | None ->
        let s = read_password vm in
        m.m_password <- s;
        s
    end
    else read_password vm
  in
  match stored with
  | Some s -> String.equal s password
  | None -> false

let check_password vm password =
  let m = memo_of vm in
  memo_validate vm m;
  check_password_m vm m password

let count vm =
  let reg = ensure vm in
  match field vm reg "count" with
  | Pvalue.Int n -> Int32.to_int n
  | _ -> 0

let programs_array vm reg =
  match field vm reg "programs" with
  | Pvalue.Ref arr -> arr
  | _ -> Rt.jerror "java.lang.InternalError" "registry programs array missing"

(* The weak cell at index i, if any. *)
let weak_at vm idx =
  let reg = ensure vm in
  let arr = programs_array vm reg in
  if idx < 0 || idx >= count vm then None
  else
    match Store.elem Rt.(vm.store) arr idx with
    | Pvalue.Ref cell -> Some cell
    | _ -> None

(* The hyper-program at index i: Null if it has been garbage collected. *)
let hp_at vm idx =
  match weak_at vm idx with
  | None -> Pvalue.Null
  | Some cell -> (Store.get_weak Rt.(vm.store) cell).Pstore.Heap.target

let grow vm reg needed =
  let store = Rt.(vm.store) in
  let arr = programs_array vm reg in
  let len = Store.array_length store arr in
  if needed > len then begin
    let bigger = Store.alloc_array store "Ljava.lang.Object;" (Array.make (max needed (2 * len)) Pvalue.Null) in
    for i = 0 to len - 1 do
      Store.set_elem store bigger i (Store.elem store arr i)
    done;
    set_field vm reg "programs" (Pvalue.Ref bigger)
  end

(* Register a hyper-program (idempotent).  Returns its unique id — its
   offset in the persistent vector, as in the paper. *)
let add_hp vm ~password hp_oid =
  if not (check_password vm password) then bad_password ();
  let store = Rt.(vm.store) in
  let existing = Storage_form.uid vm hp_oid in
  let still_there =
    existing >= 0
    &&
    match hp_at vm existing with
    | Pvalue.Ref oid -> Oid.equal oid hp_oid
    | _ -> false
  in
  if still_there then existing
  else begin
    clear_memo vm;
    let reg = ensure vm in
    let n = count vm in
    grow vm reg (n + 1);
    let arr = programs_array vm reg in
    let cell = Store.alloc_weak store (Pvalue.Ref hp_oid) in
    Store.set_elem store arr n (Pvalue.Ref cell);
    set_field vm reg "count" (Pvalue.Int (Int32.of_int (n + 1)));
    Storage_form.set_uid vm hp_oid n;
    n
  end

(* -- link retrieval with degradation ------------------------------------- *)

(* Health of a HyperLinkHP instance: the instance itself, and the entity
   its hyperLinkObject field references, must both be readable.  Both
   checks report through the shared {!Failure.t}, so this is one match
   per hop. *)
let link_damage vm link_oid =
  let store = Rt.(vm.store) in
  let slot = Rt.field_slot vm Hyper_src.hyper_link_class "hyperLinkObject" in
  match Store.try_field store link_oid slot with
  | Error e -> Some e
  | Ok (Pvalue.Ref target) -> begin
    match Store.try_get store target with
    | Ok _ -> None
    | Error e -> Some e
  end
  | Ok _ -> None

(* Retrieve a HyperLinkHP instance (the getLink of Figure 9), reporting
   failure as data rather than raising: broken links degrade. *)
let resolve_link vm ~hp ~link =
  match hp_at vm hp with
  | Pvalue.Ref hp_oid -> begin
    match Storage_form.link_oids vm hp_oid with
    | exception Quarantine.Quarantined (oid, reason) ->
      (* the hyper-program's own storage form is damaged *)
      Error (Failure.Quarantined { oid; reason })
    | link_oids -> begin
      match List.nth_opt link_oids link with
      | None ->
        Error
          (Failure.Bad_index
             { container = Printf.sprintf "hyper-program %d" hp; index = link })
      | Some link_oid -> begin
        match link_damage vm link_oid with
        | Some damage -> Error damage
        | None -> Ok (Pvalue.Ref link_oid)
      end
    end
  end
  | _ -> Error (Failure.Collected hp)

let try_get_link vm ~password ~hp ~link =
  let obs = Store.obs Rt.(vm.store) in
  let m = memo_of vm in
  memo_validate vm m;
  if not (check_password_m vm m password) then bad_password ();
  (* the span label costs a [sprintf]: only pay it while tracing *)
  let label =
    if Obs.enabled obs then Some (Printf.sprintf "hp=%d link=%d" hp link)
    else None
  in
  Obs.span obs Obs.Get_link ?label (fun () ->
      if not m.m_enabled then resolve_link vm ~hp ~link
      else begin
        match Hashtbl.find_opt m.m_table (hp, link) with
        | Some r ->
          m.m_hits <- m.m_hits + 1;
          Obs.incr obs Obs.Cache_hit;
          r
        | None ->
          let r = resolve_link vm ~hp ~link in
          m.m_misses <- m.m_misses + 1;
          Obs.incr obs Obs.Cache_miss;
          if Hashtbl.length m.m_table >= m.m_capacity then Hashtbl.reset m.m_table;
          Hashtbl.replace m.m_table (hp, link) r;
          r
      end)

(* A hyper.BrokenLink instance standing in for an unreachable target:
   compiled textual forms receive it from getLink instead of an
   exception, so a single corrupt entity does not kill the program. *)
let broken_link_value vm ~link damage =
  if not (Rt.is_loaded vm Hyper_src.broken_link_class) then Pvalue.Null
  else begin
    let store = Rt.(vm.store) in
    let v = Rt.alloc_object vm Hyper_src.broken_link_class in
    let oid = match v with Pvalue.Ref oid -> oid | _ -> assert false in
    let set name value =
      Store.set_field store oid (Rt.field_slot vm Hyper_src.broken_link_class name) value
    in
    set "label" (Rt.jstring vm (Printf.sprintf "broken link %d" link));
    set "reason" (Rt.jstring vm (Failure.describe damage));
    v
  end

(* The raising getLink: collected programs and bad indices keep their
   paper-specified exceptions, but a quarantined (or dangling) target
   degrades to a BrokenLink instance instead of killing the caller. *)
let get_link vm ~password ~hp ~link =
  match try_get_link vm ~password ~hp ~link with
  | Ok v -> v
  | Error (Failure.Collected hp) ->
    Rt.jerror "java.lang.IllegalStateException"
      "hyper-program %d has been garbage collected" hp
  | Error (Failure.Bad_index { index; _ }) ->
    Rt.jerror "java.lang.IndexOutOfBoundsException" "hyper-link %d of hyper-program %d"
      index hp
  | Error ((Failure.Quarantined _ | Failure.Dangling _) as damage) ->
    broken_link_value vm ~link damage

(* Live registered programs: (uid, oid) pairs whose weak target survives. *)
let live_programs vm =
  List.init (count vm) (fun i ->
      match hp_at vm i with
      | Pvalue.Ref oid -> Some (i, oid)
      | _ -> None)
  |> List.filter_map Fun.id

(* -- maintenance ----------------------------------------------------------- *)

let origin_prefix = "hyper.origin:"

(* Blob anchors for Integrity.check: each hyper.origin:CLS blob names the
   registry uid a compiled class came from; while that program is live
   its oid must be live too.  (A dangling anchor means the weak cell
   still holds a reference the GC should have cleared — corruption.) *)
let origin_anchors vm =
  let store = Rt.(vm.store) in
  Store.blob_keys store
  |> List.filter_map (fun key ->
         if not (String.starts_with ~prefix:origin_prefix key) then None
         else
           match Option.bind (Store.blob store key) int_of_string_opt with
           | None -> None
           | Some uid -> begin
             match hp_at vm uid with
             | Pvalue.Ref oid -> Some (key, oid)
             | _ -> None
           end)

type prune_stats = {
  cleared_slots : int;
  removed_origins : int;
}

(* Prune dead registry entries after a GC: null out weak slots whose
   target was collected (uids stay stable — the slot is kept, emptied)
   and drop hyper.origin blobs that name a collected program.  The
   emptied weak cells themselves become garbage for the next GC pass.
   Quarantined programs are NOT pruned: they are live-but-corrupt, and
   their registry entry is what lets repair tools find them.  Stores
   written before the compile cache was removed also carry its
   [hyper.ccache:*] entries and [hyper.ccache.index]; nothing reads
   them, so they go too. *)
let prune vm =
  clear_memo vm;
  let store = Rt.(vm.store) in
  let reg = ensure vm in
  let arr = programs_array vm reg in
  let cleared = ref 0 in
  for i = 0 to count vm - 1 do
    match Store.elem store arr i with
    | Pvalue.Ref cell ->
      let dead =
        match Store.try_get store cell with
        | Error (Failure.Dangling _) -> true
        | Error _ -> false
        | Ok (Pstore.Heap.Weak c) -> begin
          match c.Pstore.Heap.target with
          | Pvalue.Ref oid -> not (Store.is_live store oid)
          | _ -> true (* cleared by the GC *)
        end
        | Ok _ -> false
      in
      if dead then begin
        Store.set_elem store arr i Pvalue.Null;
        incr cleared
      end
    | _ -> ()
  done;
  let removed = ref 0 in
  List.iter
    (fun key ->
      if String.starts_with ~prefix:"hyper.ccache:" key || key = "hyper.ccache.index" then
        Store.remove_blob store key
      else if String.starts_with ~prefix:origin_prefix key then begin
        let dead =
          match Option.bind (Store.blob store key) int_of_string_opt with
          | None -> true
          | Some uid -> ( match hp_at vm uid with Pvalue.Ref _ -> false | _ -> true)
        in
        if dead then begin
          Store.remove_blob store key;
          incr removed
        end
      end)
    (Store.blob_keys store);
  { cleared_slots = !cleared; removed_origins = !removed }
