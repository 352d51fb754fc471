(* Stabilisation: the whole store (heap, roots, blobs, quarantine) is
   serialised into a single image and written atomically
   ([Faults.replace_file]).  Oids are preserved verbatim so hyper-links
   survive a close/reopen.

   Format v2 checksums every object individually: each heap entry is a
   [length][crc32][payload] frame (the same framing the write-ahead
   journal uses, via {!Codec.put_frame}), and the tail section (roots,
   blobs, quarantine) is one more such frame.  A whole-image CRC trailer
   identifies the image for journal pairing and is the check on a clean
   load: when it matches, [decode] reads every frame without recomputing
   its CRC, so each byte is hashed once.  The per-entry frames are checked
   only when salvaging, and they are what make salvage possible: when the
   whole-image checksum fails, [decode] walks the entry frames,
   quarantines exactly the objects whose frames are corrupt, and loads
   everything else — one flipped bit costs one object, not the store.

   Blobs are named byte strings used by higher layers for non-object
   state; the MiniJava runtime stores its compiled class files there,
   which is what makes classes persistent. *)

exception Image_error of string

let image_error fmt = Format.kasprintf (fun s -> raise (Image_error s)) fmt

let magic = "HPJSTORE"
let version = 2

type contents = {
  heap : Heap.t;
  roots : Roots.t;
  blobs : (string, string) Hashtbl.t;
  quarantine : Quarantine.t;
}

(* -- per-object wire format ----------------------------------------------- *)

let encode_entry_into w entry =
  let open Codec in
  match entry with
  | Heap.Record r ->
    put_u8 w 0;
    put_string w r.Heap.class_name;
    put_array w Pvalue.encode r.Heap.fields
  | Heap.Array a ->
    put_u8 w 1;
    put_string w a.Heap.elem_type;
    put_array w Pvalue.encode a.Heap.elems
  | Heap.Str s ->
    put_u8 w 2;
    put_string w s
  | Heap.Weak cell ->
    put_u8 w 3;
    Pvalue.encode w cell.Heap.target

(* One reused encode buffer for every entry payload, so an image encode,
   a journal append or a budgeted scrub step allocates per-object payload
   bytes, not a fresh 4 KiB buffer per object. *)
let scratch = Codec.writer ()

let entry_payload entry =
  Codec.reset scratch;
  encode_entry_into scratch entry;
  Codec.contents scratch

(* The per-object checksum: what the image frames store and the online
   scrubber recomputes. *)
let entry_crc entry = Codec.crc32 (entry_payload entry)

let decode_entry_payload payload =
  let open Codec in
  let r = reader payload in
  let entry =
    match get_u8 r with
    | 0 ->
      let class_name = get_string r in
      let fields = get_array r Pvalue.decode in
      Heap.Record { Heap.class_name; fields }
    | 1 ->
      let elem_type = get_string r in
      let elems = get_array r Pvalue.decode in
      Heap.Array { Heap.elem_type; elems }
    | 2 -> Heap.Str (get_string r)
    | 3 -> Heap.Weak { Heap.target = Pvalue.decode r }
    | n -> Codec.decode_error "Image: invalid entry kind %d" n
  in
  if not (at_end r) then Codec.decode_error "Image: trailing bytes in entry";
  entry

let encode_entry w entry = Codec.put_frame w (entry_payload entry)
let decode_entry r = decode_entry_payload (Codec.get_frame r)

(* -- whole-image format ---------------------------------------------------- *)

let encode { heap; roots; blobs; quarantine } =
  let open Codec in
  let w = writer () in
  put_bytes w magic;
  put_u8 w version;
  put_i64 w (Int64.of_int (Heap.next_oid heap));
  (* Heap entries, sorted by oid for deterministic images. *)
  let entries =
    Heap.fold (fun oid entry acc -> (oid, entry) :: acc) heap []
    |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  in
  put_int w (List.length entries);
  List.iter
    (fun (oid, entry) ->
      put_i64 w (Int64.of_int (Oid.to_int oid));
      encode_entry w entry)
    entries;
  (* The tail (roots, blobs, quarantine) rides in its own frame so a
     salvage load can still trust it when entry payloads are corrupt. *)
  let tail = writer () in
  let root_bindings =
    Roots.fold (fun name v acc -> (name, v) :: acc) roots []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  put_int tail (List.length root_bindings);
  List.iter
    (fun (name, v) ->
      put_string tail name;
      Pvalue.encode tail v)
    root_bindings;
  let blob_bindings =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) blobs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  put_int tail (List.length blob_bindings);
  List.iter
    (fun (k, v) ->
      put_string tail k;
      put_string tail v)
    blob_bindings;
  let quarantined = Quarantine.to_list quarantine in
  put_int tail (List.length quarantined);
  List.iter
    (fun (oid, reason) ->
      put_i64 tail (Int64.of_int (Oid.to_int oid));
      put_string tail reason)
    quarantined;
  put_frame w (contents tail);
  contents_with_crc w

(* The CRC that [encode] appended: identifies this image so a journal can
   name the exact snapshot it extends. *)
let crc_of_encoded data =
  if String.length data < 4 then image_error "truncated image";
  String.get_int32_le data (String.length data - 4)

let decode_with_salvage data =
  let open Codec in
  let body_len = String.length data - 4 in
  if body_len < String.length magic + 1 then image_error "truncated image";
  let stored_crc = crc_of_encoded data in
  let actual_crc = crc32_sub data ~pos:0 ~len:body_len in
  let checksum_ok = Int32.equal stored_crc actual_crc in
  let fail_checksum () =
    image_error "checksum mismatch: stored %ld, computed %ld" stored_crc actual_crc
  in
  (* A matching trailer covers every frame's bytes with the same 32-bit
     strength, so a clean load reads the frames without re-hashing them.
     On a whole-image mismatch we attempt salvage: per-entry frames
     localise the damage.  Salvage is accepted only if it actually finds
     corrupt entry frames and the tail frame still verifies; corruption
     anywhere else (header, oid fields, tail) means nothing can be
     trusted, and the original checksum error is raised. *)
  let quarantine = Quarantine.create () in
  let salvaged = ref 0 in
  try
    let r = prefix_reader data body_len in
    let file_magic = get_bytes r (String.length magic) in
    if not (String.equal file_magic magic) then
      if checksum_ok then image_error "bad magic %S" file_magic else fail_checksum ();
    let file_version = get_u8 r in
    if file_version <> version then
      if checksum_ok then image_error "unsupported image version %d" file_version
      else fail_checksum ();
    let next = Int64.to_int (get_i64 r) in
    let heap = Heap.create () in
    let n_entries = get_int r in
    for _ = 1 to n_entries do
      let n = Int64.to_int (get_i64 r) in
      if n < 0 then decode_error "Image: negative oid %d" n;
      let oid = Oid.of_int n in
      match if checksum_ok then Ok (trusted_frame r) else checked_frame r with
      | Ok payload -> begin
        match decode_entry_payload payload with
        | entry -> Heap.insert heap oid entry
        | exception Codec.Decode_error msg ->
          Quarantine.add quarantine oid ("undecodable object: " ^ msg);
          incr salvaged
      end
      | Error msg ->
        Quarantine.add quarantine oid ("storage " ^ msg);
        incr salvaged
    done;
    Heap.set_next_oid heap next;
    let tail = reader (if checksum_ok then trusted_frame r else get_frame r) in
    let roots = Roots.create () in
    let n_roots = get_int tail in
    for _ = 1 to n_roots do
      let name = get_string tail in
      Roots.set roots name (Pvalue.decode tail)
    done;
    let blobs = Hashtbl.create 16 in
    let n_blobs = get_int tail in
    for _ = 1 to n_blobs do
      let k = get_string tail in
      let v = get_string tail in
      Hashtbl.replace blobs k v
    done;
    let n_quarantined = get_int tail in
    for _ = 1 to n_quarantined do
      let oid = Oid.of_int (Int64.to_int (get_i64 tail)) in
      let reason = get_string tail in
      if not (Quarantine.mem quarantine oid) then Quarantine.add quarantine oid reason
    done;
    if not (at_end r) then image_error "%d trailing bytes after image" (remaining r);
    if (not checksum_ok) && !salvaged = 0 then fail_checksum ();
    ({ heap; roots; blobs; quarantine }, !salvaged)
  with Codec.Decode_error _ when not checksum_ok -> fail_checksum ()

let decode data = fst (decode_with_salvage data)

(* Crash-atomic save through [Faults.replace_file]. *)
let save ~obs path contents =
  let data = encode contents in
  Obs.span obs Obs.Image_save ~bytes:(String.length data) ~label:(Filename.basename path)
    (fun () ->
      Faults.replace_file path data;
      crc_of_encoded data)

(* A load that also reports how many entries the decoder had to salvage
   around: the sharded open uses the count to judge whether a shard's
   image was damaged enough to demote the shard (salvage-heavy open). *)
type load_report = {
  lr_contents : contents;
  lr_crc : int32;
  lr_salvaged : int;
}

let load_report ~obs path =
  Obs.span obs Obs.Image_load ~label:(Filename.basename path) (fun () ->
      let data = Faults.read_file path in
      let contents, salvaged = decode_with_salvage data in
      { lr_contents = contents; lr_crc = crc_of_encoded data; lr_salvaged = salvaged })

(* One shard's view of whole-store contents: entries, roots, blobs and
   quarantined oids selected by the shard predicates.  Heap entries are
   shared by reference — a slice is a transient encode/save input, never
   a second live store.  [next_oid] is the global counter: every shard
   image must be able to restore it alone. *)
let slice ~keep_oid ~keep_key { heap; roots; blobs; quarantine } =
  let h = Heap.create () in
  Heap.iter (fun oid e -> if keep_oid oid then Heap.insert h oid e) heap;
  Heap.set_next_oid h (Heap.next_oid heap);
  let r = Roots.create () in
  Roots.iter (fun name v -> if keep_key name then Roots.set r name v) roots;
  let b = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> if keep_key k then Hashtbl.replace b k v) blobs;
  let q = Quarantine.create () in
  List.iter
    (fun (oid, reason) -> if keep_oid oid then Quarantine.add q oid reason)
    (Quarantine.to_list quarantine);
  { heap = h; roots = r; blobs = b; quarantine = q }
