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
   them.

   The vector is chunked: [programs] is a directory of chunk arrays of
   [chunk_size] weak-cell slots, and uid [n] lives at chunk
   [n / chunk_size], slot [n mod chunk_size].  A publish writes one
   chunk slot, so while snapshot sessions are open the store keeps a
   pre-image of one chunk, not of the whole vector.  The Java class is
   unchanged: the directory and the chunks are both [Object[]]. *)

open Pstore
open Minijava

let root_name = "hyper.registry"

(* The password is "built into the system" (Section 4.2). *)
let built_in_password = "passwd"

let bad_password () =
  Rt.jerror "java.lang.SecurityException" "wrong password for the hyper-program registry"

let field vm oid name =
  Store.Session.field Rt.(vm.session) oid (Rt.field_slot vm Hyper_src.registry_class name)

let set_field vm oid name v =
  Store.Session.set_field Rt.(vm.session) oid (Rt.field_slot vm Hyper_src.registry_class name) v

(* Kept only because the frozen benchmark reads it: there is no getLink
   memo, so every count is zero. *)
type memo_stats = {
  hits : int;
  misses : int;
  entries : int;
  capacity : int;
}

let memo_stats _vm = { hits = 0; misses = 0; entries = 0; capacity = 0 }

let chunk_size = 64

let object_array session elems = Store.Session.alloc_array session "Ljava.lang.Object;" elems

(* Get or create the registry object rooted at [root_name].  The lookups
   below take the oid it returns, so one root lookup serves a getLink. *)
let ensure vm =
  let session = Rt.(vm.session) in
  match Store.Session.root session root_name with
  | Some (Pvalue.Ref oid) -> oid
  | Some _ | None ->
    let reg = Rt.alloc_object vm Hyper_src.registry_class in
    let oid = match reg with Pvalue.Ref oid -> oid | _ -> assert false in
    set_field vm oid "password" (Rt.jstring vm built_in_password);
    let dir = object_array session (Array.make 8 Pvalue.Null) in
    set_field vm oid "programs" (Pvalue.Ref dir);
    set_field vm oid "count" (Pvalue.Int 0l);
    Store.Session.set_root session root_name (Pvalue.Ref oid);
    oid

let password_ok vm reg password =
  match field vm reg "password" with
  | Pvalue.Ref soid -> String.equal (Store.Session.get_string Rt.(vm.session) soid) password
  | _ -> false

let check_password vm password = password_ok vm (ensure vm) password

let count_in vm reg =
  match field vm reg "count" with
  | Pvalue.Int n -> Int32.to_int n
  | _ -> 0

let count vm = count_in vm (ensure vm)

let programs_array vm reg =
  match field vm reg "programs" with
  | Pvalue.Ref arr -> arr
  | _ -> Rt.jerror "java.lang.InternalError" "registry programs array missing"

(* Where uid [idx]'s weak cell lives: its chunk, its slot and the cell.
   [None] for a uid never registered or a slot [prune] emptied. *)
let cell_in vm reg idx =
  let session = Rt.(vm.session) in
  if idx < 0 || idx >= count_in vm reg then None
  else
    match Store.Session.elem session (programs_array vm reg) (idx / chunk_size) with
    | Pvalue.Ref chunk -> (
      let slot = idx mod chunk_size in
      match Store.Session.elem session chunk slot with
      | Pvalue.Ref cell -> Some (chunk, slot, cell)
      | _ -> None)
    | _ -> None

(* The hyper-program at index i: Null if it has been garbage collected
   or was never registered. *)
let hp_in vm reg idx =
  match cell_in vm reg idx with
  | Some (_, _, cell) -> (Store.Session.get_weak Rt.(vm.session) cell).Pstore.Heap.target
  | None -> Pvalue.Null

let hp_at vm idx = hp_in vm (ensure vm) idx

(* The chunk holding slot [c] of the directory, allocated on first use;
   the directory doubles when [c] is past its end. *)
let chunk_for vm reg c =
  let session = Rt.(vm.session) in
  let dir = programs_array vm reg in
  let len = Store.Session.array_length session dir in
  let dir =
    if c < len then dir
    else begin
      let bigger = object_array session (Array.make (max (c + 1) (2 * len)) Pvalue.Null) in
      for i = 0 to len - 1 do
        Store.Session.set_elem session bigger i (Store.Session.elem session dir i)
      done;
      set_field vm reg "programs" (Pvalue.Ref bigger);
      bigger
    end
  in
  match Store.Session.elem session dir c with
  | Pvalue.Ref chunk -> chunk
  | _ ->
    let chunk = object_array session (Array.make chunk_size Pvalue.Null) in
    Store.Session.set_elem session dir c (Pvalue.Ref chunk);
    chunk

(* Stores written before the vector was chunked hold the weak cells
   directly in [programs].  The first slot whose entry is readable
   tells the layouts apart: a chunk is an array, a cell is weak.  A
   flat vector is rewritten into chunks, each uid keeping its cell. *)
let upgrade vm =
  let session = Rt.(vm.session) in
  let reg = ensure vm in
  let flat = programs_array vm reg in
  let n = min (count_in vm reg) (Store.Session.array_length session flat) in
  let rec is_flat i =
    i < n
    &&
    match Store.Session.elem session flat i with
    | Pvalue.Ref oid -> (
      match Store.Session.try_get session oid with
      | Ok (Pstore.Heap.Weak _) -> true
      | Ok _ -> false
      | Error _ -> is_flat (i + 1))
    | _ -> is_flat (i + 1)
  in
  if is_flat 0 then begin
    let chunk c =
      object_array session
        (Array.init chunk_size (fun k ->
             let i = (c * chunk_size) + k in
             if i < n then Store.Session.elem session flat i else Pvalue.Null))
    in
    let dir = Array.init ((n + chunk_size - 1) / chunk_size) (fun c -> Pvalue.Ref (chunk c)) in
    set_field vm reg "programs" (Pvalue.Ref (object_array session dir))
  end

(* Register a hyper-program (idempotent).  Returns its unique id — its
   offset in the persistent vector, as in the paper. *)
let add_hp vm ~password hp_oid =
  let reg = ensure vm in
  if not (password_ok vm reg password) then bad_password ();
  let session = Rt.(vm.session) in
  let existing = Storage_form.uid vm hp_oid in
  let still_there =
    existing >= 0
    &&
    match hp_in vm reg existing with
    | Pvalue.Ref oid -> Oid.equal oid hp_oid
    | _ -> false
  in
  if still_there then existing
  else begin
    let n = count_in vm reg in
    let chunk = chunk_for vm reg (n / chunk_size) in
    let cell = Store.Session.alloc_weak session (Pvalue.Ref hp_oid) in
    Store.Session.set_elem session chunk (n mod chunk_size) (Pvalue.Ref cell);
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
  let session = Rt.(vm.session) in
  let slot = Rt.field_slot vm Hyper_src.hyper_link_class "hyperLinkObject" in
  match Store.Session.try_field session link_oid slot with
  | Error e -> Some e
  | Ok (Pvalue.Ref target) -> begin
    match Store.Session.try_get session target with
    | Ok _ -> None
    | Error e -> Some e
  end
  | Ok _ -> None

let link_status vm link_oid =
  match link_damage vm link_oid with
  | Some damage -> Error damage
  | None -> Ok (Pvalue.Ref link_oid)

(* Retrieve a HyperLinkHP instance (the getLink of Figure 9), reporting
   failure as data rather than raising: broken links degrade. *)
let resolve_link vm reg ~hp ~link =
  match hp_in vm reg hp with
  | Pvalue.Ref hp_oid -> begin
    match Storage_form.link_oid vm hp_oid link with
    | exception Quarantine.Quarantined (oid, reason) ->
      (* the hyper-program's own storage form is damaged *)
      Error (Failure.Quarantined { oid; reason })
    | None ->
      Error
        (Failure.Bad_index { container = Printf.sprintf "hyper-program %d" hp; index = link })
    | Some link_oid -> link_status vm link_oid
  end
  | _ -> Error (Failure.Collected hp)

let try_get_link vm ~password ~hp ~link =
  let reg = ensure vm in
  if not (password_ok vm reg password) then bad_password ();
  let obs = Store.obs (Store.Session.store Rt.(vm.session)) in
  (* the span label costs a [sprintf]: only pay it while tracing *)
  let label =
    if Obs.enabled obs then Some (Printf.sprintf "hp=%d link=%d" hp link)
    else None
  in
  Obs.span obs Obs.Get_link ?label (fun () -> resolve_link vm reg ~hp ~link)

(* A hyper.BrokenLink instance standing in for an unreachable target:
   compiled textual forms receive it from getLink instead of an
   exception, so a single corrupt entity does not kill the program. *)
let broken_link_value vm ~link damage =
  if not (Rt.is_loaded vm Hyper_src.broken_link_class) then Pvalue.Null
  else begin
    let session = Rt.(vm.session) in
    let v = Rt.alloc_object vm Hyper_src.broken_link_class in
    let oid = match v with Pvalue.Ref oid -> oid | _ -> assert false in
    let set name value =
      Store.Session.set_field session oid
        (Rt.field_slot vm Hyper_src.broken_link_class name)
        value
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
  let reg = ensure vm in
  List.init (count_in vm reg) (fun i ->
      match hp_in vm reg i with
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
  let session = Rt.(vm.session) in
  Store.Session.blob_keys session
  |> List.filter_map (fun key ->
         if not (String.starts_with ~prefix:origin_prefix key) then None
         else
           match Option.bind (Store.Session.blob session key) int_of_string_opt with
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
  let session = Rt.(vm.session) in
  let reg = ensure vm in
  let cleared = ref 0 in
  for i = 0 to count_in vm reg - 1 do
    match cell_in vm reg i with
    | Some (chunk, slot, cell) ->
      let dead =
        match Store.Session.try_get session cell with
        | Error (Failure.Dangling _) -> true
        | Error _ -> false
        | Ok (Pstore.Heap.Weak c) -> begin
          match c.Pstore.Heap.target with
          | Pvalue.Ref oid -> not (Store.Session.is_live session oid)
          | _ -> true (* cleared by the GC *)
        end
        | Ok _ -> false
      in
      if dead then begin
        Store.Session.set_elem session chunk slot Pvalue.Null;
        incr cleared
      end
    | None -> ()
  done;
  let removed = ref 0 in
  List.iter
    (fun key ->
      if String.starts_with ~prefix:"hyper.ccache:" key || key = "hyper.ccache.index" then
        Store.Session.remove_blob session key
      else if String.starts_with ~prefix:origin_prefix key then begin
        let dead =
          match Option.bind (Store.Session.blob session key) int_of_string_opt with
          | None -> true
          | Some uid -> ( match hp_in vm reg uid with Pvalue.Ref _ -> false | _ -> true)
        in
        if dead then begin
          Store.Session.remove_blob session key;
          incr removed
        end
      end)
    (Store.Session.blob_keys session);
  { cleared_slots = !cleared; removed_origins = !removed }
