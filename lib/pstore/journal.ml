(* The write-ahead journal: a header naming the base image by checksum,
   then length-prefixed, CRC-protected mutation records.

   Record framing is [u32 length][u32 crc32(payload)][payload].  The
   framing is what makes recovery possible without trusting the tail of
   the file: a crash mid-append leaves a record whose length runs past
   end-of-file or whose checksum does not match, and replay simply stops
   there.  Nothing before the torn record is affected, so everything up to
   the last successful sync is recovered intact.

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
  oc : out_channel;
  mutable count : int;
  obs : Obs.t option; (* bumps Journal_append per record written *)
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

(* Record framing is the shared [Codec.put_frame] layout, the same one
   protecting each image entry: length, crc32, payload. *)
let frame payload =
  let w = Codec.writer () in
  Codec.put_frame w payload;
  Codec.contents w

(* -- writing ------------------------------------------------------------- *)

let create ?obs path ~base_crc =
  let oc = open_out_bin path in
  let header =
    let open Codec in
    let w = writer () in
    put_bytes w magic;
    put_i32 w base_crc;
    contents w
  in
  (try
     Faults.output_string oc header;
     Faults.fsync_channel oc
   with e ->
     close_out_noerr oc;
     raise e);
  { oc; count = 0; obs }

let append t ops =
  List.iter
    (fun op ->
      Faults.output_string t.oc (frame (encode_op op));
      t.count <- t.count + 1;
      match t.obs with
      | Some o -> Obs.incr o Obs.Journal_append
      | None -> ())
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
    Faults.output_string t.oc (frame (encode_batch ?seq ops));
    t.count <- t.count + List.length ops;
    (match t.obs with
    | Some o ->
      Obs.incr o Obs.Journal_append;
      Obs.incr o Obs.Group_commit
    | None -> ())

let sync t = Faults.fsync_channel t.oc

let depth t = t.count

(* [pos_out] counts buffered bytes, so a savepoint costs no write: the
   batch being appended stays in the buffer until its sync. *)
let position t = pos_out t.oc

let truncate_to t ~pos ~depth =
  flush t.oc;
  Unix.ftruncate (Unix.descr_of_out_channel t.oc) pos;
  seek_out t.oc pos;
  t.count <- depth

let close t = close_out_noerr t.oc

(* Simulate a process crash: close the descriptor without flushing, so
   buffered bytes are lost exactly as they would be. *)
let crash t = try Unix.close (Unix.descr_of_out_channel t.oc) with _ -> ()

(* -- recovery ------------------------------------------------------------ *)

type batch = {
  b_seq : int option;  (* Some for tag-8 records; None otherwise *)
  b_ops : op list;
  b_end : int;  (* end byte offset of the record *)
}

type replay = {
  base_crc : int32;
  records : (op * int) list;
  batches : batch list;
  torn : bool;
  valid_bytes : int;
}

let read path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let len = String.length data in
    if len < header_size || not (String.equal (String.sub data 0 (String.length magic)) magic)
    then None
    else begin
      let base_crc =
        Codec.get_i32 (Codec.reader (String.sub data (String.length magic) 4))
      in
      let records = ref [] in
      let batches = ref [] in
      let pos = ref header_size in
      let torn = ref false in
      let valid = ref header_size in
      (try
         while not !torn && !pos + 8 <= len do
           let r = Codec.reader (String.sub data !pos 8) in
           let payload_len = Codec.get_int r in
           let crc = Codec.get_i32 r in
           if payload_len < 0 || !pos + 8 + payload_len > len then torn := true
           else begin
             let payload = String.sub data (!pos + 8) payload_len in
             if not (Int32.equal (Codec.crc32 payload) crc) then torn := true
             else begin
               let seq, ops = decode_record payload in
               pos := !pos + 8 + payload_len;
               valid := !pos;
               (* every op of a batch shares the batch's end offset: a
                  truncation point is always a whole-record boundary *)
               List.iter (fun op -> records := (op, !pos) :: !records) ops;
               batches := { b_seq = seq; b_ops = ops; b_end = !pos } :: !batches
             end
           end
         done;
         if !pos < len && not !torn then torn := true
       with Codec.Decode_error _ -> torn := true);
      Some
        {
          base_crc;
          records = List.rev !records;
          batches = List.rev !batches;
          torn = !torn;
          valid_bytes = !valid;
        }
    end
  end

(* Seek rather than O_APPEND: [pos_out] on an append-mode channel reads 0
   until the first write, which would poison both the reported journal
   size and — worse — the [position] savepoints the sharded commit
   protocol truncates back to on a failed append. *)
let open_for_append ?obs path ~valid_bytes ~depth =
  Unix.truncate path valid_bytes;
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc valid_bytes;
  { oc; count = depth; obs }

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
