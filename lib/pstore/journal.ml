(* The write-ahead journal: a header naming the base image by checksum,
   then length-prefixed, CRC-protected mutation records.

   Record framing is [u32 length][u32 crc32(payload)][payload], written
   by [Faults.append_frame] and read back by the lenient
   [Codec.scan_frames].  The framing is what makes recovery possible
   without trusting the tail of the file: replay stops at the first torn
   record, so everything up to the last successful sync is recovered
   intact.

   A record payload holds either one op (tag 0-6) or a GROUP-COMMIT
   batch (tag 7): a whole multi-op stabilise delta in a single frame.
   Because the frame's CRC covers the entire batch, a crash mid-write
   tears the batch as a unit — recovery lands on the pre-batch state,
   never on a prefix of a transaction's mutations. *)

let magic = "HPJWAL01"
let header_size = String.length magic + 4

type op =
  | Set_root of string * Pvalue.t
  | Remove_root of string
  | Alloc of Oid.t * Heap.entry
  | Set_field of Oid.t * int * Pvalue.t
  | Set_elem of Oid.t * int * Pvalue.t
  | Set_blob of string * string
  | Remove_blob of string

type t = {
  log : Faults.log;
  mutable count : int;
  obs : Obs.t; (* bumps Journal_append per record written *)
}

let path_for image_path = image_path ^ ".wal"

(* -- wire format --------------------------------------------------------- *)

let encode_op op =
  let open Codec in
  let w = writer () in
  (match op with
  | Set_root (name, v) ->
    put_u8 w 0;
    put_string w name;
    Pvalue.encode w v
  | Remove_root name ->
    put_u8 w 1;
    put_string w name
  | Alloc (oid, entry) ->
    put_u8 w 2;
    put_i64 w (Int64.of_int (Oid.to_int oid));
    Image.encode_entry w entry
  | Set_field (oid, idx, v) ->
    put_u8 w 3;
    put_i64 w (Int64.of_int (Oid.to_int oid));
    put_int w idx;
    Pvalue.encode w v
  | Set_elem (oid, idx, v) ->
    put_u8 w 4;
    put_i64 w (Int64.of_int (Oid.to_int oid));
    put_int w idx;
    Pvalue.encode w v
  | Set_blob (key, data) ->
    put_u8 w 5;
    put_string w key;
    put_string w data
  | Remove_blob key ->
    put_u8 w 6;
    put_string w key);
  contents w

let batch_tag = 7
let seq_batch_tag = 8

let decode_one r =
  let open Codec in
  let oid () = Oid.of_int (Int64.to_int (get_i64 r)) in
  match get_u8 r with
  | 0 ->
    let name = get_string r in
    Set_root (name, Pvalue.decode r)
  | 1 -> Remove_root (get_string r)
  | 2 ->
    let oid = oid () in
    Alloc (oid, Image.decode_entry r)
  | 3 ->
    let oid = oid () in
    let idx = get_int r in
    Set_field (oid, idx, Pvalue.decode r)
  | 4 ->
    let oid = oid () in
    let idx = get_int r in
    Set_elem (oid, idx, Pvalue.decode r)
  | 5 ->
    let key = get_string r in
    Set_blob (key, get_string r)
  | 6 -> Remove_blob (get_string r)
  | n -> decode_error "Journal: invalid record kind %d" n

let get_batch_ops r =
  let open Codec in
  get_list r (fun r ->
      let body = get_string r in
      let br = reader body in
      let op = decode_one br in
      if not (at_end br) then decode_error "Journal: trailing bytes in batched op";
      op)

(* A record payload is one op, a tag-7 batch of length-prefixed ops, or
   a tag-8 batch that additionally carries the store-level stabilise
   sequence number (sharded stores match batches against the commit
   marker by this number).  Returns the seq, if any, with the ops. *)
let decode_record payload =
  let open Codec in
  let r = reader payload in
  let tag = if String.length payload > 0 then Char.code payload.[0] else -1 in
  let seq, ops =
    if tag = batch_tag then begin
      ignore (get_u8 r);
      (None, get_batch_ops r)
    end
    else if tag = seq_batch_tag then begin
      ignore (get_u8 r);
      let seq = Int64.to_int (get_i64 r) in
      (Some seq, get_batch_ops r)
    end
    else (None, [ decode_one r ])
  in
  if not (at_end r) then decode_error "Journal: trailing bytes in record";
  (seq, ops)

let encode_batch ?seq ops =
  let open Codec in
  let w = writer () in
  (match seq with
  | None -> put_u8 w batch_tag
  | Some s ->
    put_u8 w seq_batch_tag;
    put_i64 w (Int64.of_int s));
  put_list w (fun w op -> put_string w (encode_op op)) ops;
  contents w

(* -- writing ------------------------------------------------------------- *)

(* Records are [Faults.append_frame] frames, the [Codec.put_frame] layout
   that also protects each image entry: length, crc32, payload. *)
let create ~obs path ~base_crc =
  let header =
    let open Codec in
    let w = writer () in
    put_bytes w magic;
    put_i32 w base_crc;
    contents w
  in
  { log = Faults.create_log path ~header; count = 0; obs }

let append t ops =
  List.iter
    (fun op ->
      Faults.append_frame t.log (encode_op op);
      t.count <- t.count + 1;
      Obs.incr t.obs Obs.Journal_append)
    ops

(* A stabilise's whole delta as ONE framed record (the batch record;
   [Obs.Group_commit] counts them).  It makes a stabilise atomic; the
   caller fsyncs it before the stabilise returns.  The frame's CRC
   covers every op, so a crash mid-write tears the batch atomically —
   replay recovers the pre-batch state, never a prefix.  A single op
   keeps the plain framing (byte-compatible with pre-batch journals)
   unless [seq] is given: a seq-carrying batch is always a tag-8 frame,
   because sharded recovery must see the sequence number even for a
   one-op delta. *)
let append_batch ?seq t ops =
  match (ops, seq) with
  | [], _ -> ()
  | [ _ ], None -> append t ops
  | ops, seq ->
    Faults.append_frame t.log (encode_batch ?seq ops);
    t.count <- t.count + List.length ops;
    Obs.incr t.obs Obs.Journal_append;
    Obs.incr t.obs Obs.Group_commit

let sync t = Faults.sync_log t.log
let depth t = t.count
let position t = Faults.log_position t.log

let truncate_to t ~pos ~depth =
  Faults.truncate_log t.log pos;
  t.count <- depth

let log t = t.log

(* -- recovery ------------------------------------------------------------ *)

type batch = {
  b_seq : int option;  (* Some for tag-8 records; None otherwise *)
  b_ops : op list;
  b_end : int;  (* end byte offset of the record *)
}

type replay = {
  base_crc : int32;
  batches : batch list;
  torn : bool;
  valid_bytes : int;
}

let read path =
  if not (Sys.file_exists path) then None
  else begin
    let data = Faults.read_file path in
    if String.length data < header_size || not (String.starts_with ~prefix:magic data) then None
    else begin
      let base_crc = Codec.get_i32 (Codec.reader (String.sub data (String.length magic) 4)) in
      let records, valid_bytes, torn = Codec.scan_frames data ~pos:header_size decode_record in
      let batches = List.map (fun ((b_seq, b_ops), b_end) -> { b_seq; b_ops; b_end }) records in
      Some { base_crc; batches; torn; valid_bytes }
    end
  end

let open_for_append ~obs path ~valid_bytes ~depth =
  { log = Faults.reopen_log path ~valid_bytes; count = depth; obs }

(* Inserted entries are copied: a journal op may alias a live heap object
   (the store records allocations by reference), and replay must not give
   the rebuilt heap a view onto the old one's mutable state. *)
let copy_entry = function
  | Heap.Record r -> Heap.Record { r with Heap.fields = Array.copy r.Heap.fields }
  | Heap.Array a -> Heap.Array { a with Heap.elems = Array.copy a.Heap.elems }
  | Heap.Str s -> Heap.Str s
  | Heap.Weak c -> Heap.Weak { Heap.target = c.Heap.target }

let apply op heap roots blobs =
  match op with
  | Set_root (name, v) -> Roots.set roots name v
  | Remove_root name -> Roots.remove roots name
  | Alloc (oid, entry) ->
    (* replace, don't raise, on a live oid: a failed append followed by a
       retry can journal the same allocation at two sequence numbers, and
       replay of both must converge rather than abort recovery *)
    if Heap.is_live heap oid then Heap.remove heap oid;
    Heap.insert heap oid (copy_entry entry);
    if Oid.to_int oid >= Heap.next_oid heap then Heap.set_next_oid heap (Oid.to_int oid + 1)
  | Set_field (oid, idx, v) -> Heap.set_field heap oid idx v
  | Set_elem (oid, idx, v) -> Heap.set_elem heap oid idx v
  | Set_blob (key, data) -> Hashtbl.replace blobs key data
  | Remove_blob key -> Hashtbl.remove blobs key
