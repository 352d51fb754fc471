(* Fault injection for durability testing.  A single global injector is
   enough: tests arm exactly one fault at a time.  Faults are one-shot —
   firing disarms — so the recovery I/O that follows a simulated crash
   runs clean.  With nothing armed, a wrapper costs one reference read. *)

exception Fault_injected of string

type fault =
  | Fail_after_bytes of int
  | Short_write of int
  | Rename_fails
  | Fsync_fails
  | Bit_flip of int
  | Kill_after_bytes of int
  | Intr_storm of int

let current : fault option ref = ref None

(* When set, the armed fault only fires on I/O performed inside
   [with_shard_scope target] — sharded stores scope each shard's I/O so
   tests can break exactly one fault domain. *)
let target : int option ref = ref None
let scope : int option ref = ref None

let with_shard_scope k f =
  let old = !scope in
  scope := Some k;
  Fun.protect ~finally:(fun () -> scope := old) f

(* Bytes written while the current fault has been armed. *)
let written = ref 0
let fired_count = ref 0

let arm ?shard f =
  current := Some f;
  target := shard;
  written := 0

let disarm () =
  current := None;
  target := None

let armed () = !current
let fired () = !fired_count

let fire msg =
  disarm ();
  incr fired_count;
  raise (Fault_injected msg)

(* The armed fault, if it applies to I/O issued from the current scope.
   Untargeted faults fire anywhere; targeted faults fire only inside the
   matching [with_shard_scope] (and their byte budgets count only the
   targeted shard's writes). *)
let in_scope () =
  match !current with
  | Some _ when Option.is_some !target && !target <> !scope -> None
  | armed -> armed

(* An EINTR storm is not one-shot: it fires [n] times before disarming,
   modelling a burst of interrupted syscalls that a retried stabilise
   must ride out.  The op never happened — no partial bytes land. *)
let storm_fire op n =
  if n <= 1 then disarm () else current := Some (Intr_storm (n - 1));
  incr fired_count;
  raise (Unix.Unix_error (Unix.EINTR, op, ""))

let with_fault f body =
  arm f;
  match body () with
  | v ->
    disarm ();
    Ok v
  | exception e ->
    disarm ();
    Error e

(* A partial write must actually reach the OS before we simulate the
   crash, otherwise the "torn" bytes would vanish with the buffer. *)
let partial_write oc s n =
  output_substring oc s 0 n;
  flush oc

let output_string oc s =
  match in_scope () with
  | None | Some (Rename_fails | Fsync_fails) -> Stdlib.output_string oc s
  | Some (Intr_storm n) -> storm_fire "write" n
  | Some (Fail_after_bytes budget) ->
    let len = String.length s in
    if !written + len <= budget then begin
      Stdlib.output_string oc s;
      written := !written + len
    end
    else begin
      partial_write oc s (budget - !written);
      fire (Printf.sprintf "write failed after %d bytes" budget)
    end
  | Some (Short_write n) ->
    partial_write oc s (min n (String.length s));
    fire
      (Printf.sprintf "short write: %d of %d bytes" (min n (String.length s)) (String.length s))
  | Some (Bit_flip off) ->
    let len = String.length s in
    if off >= !written && off < !written + len then begin
      let b = Bytes.of_string s in
      let i = off - !written in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      Stdlib.output_string oc (Bytes.unsafe_to_string b);
      current := None;
      incr fired_count
    end
    else begin
      Stdlib.output_string oc s;
      written := !written + len
    end
  | Some (Kill_after_bytes budget) ->
    let len = String.length s in
    if !written + len <= budget then begin
      Stdlib.output_string oc s;
      written := !written + len
    end
    else begin
      (* The torn prefix must reach the OS before the process dies,
         or there would be nothing torn to recover from. *)
      partial_write oc s (budget - !written);
      incr fired_count;
      Unix.kill (Unix.getpid ()) Sys.sigkill
    end

(* Flip one bit of an object's in-memory state behind the store API, the
   way a stray pointer or bad DIMM would.  Counts as a fired fault.  The
   scrubber's in-memory checksum pass is what must catch this. *)
let flip_string s =
  if String.length s = 0 then "\x01"
  else begin
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
    Bytes.unsafe_to_string b
  end

let corrupt_entry heap oid =
  let corrupted =
    match Heap.get heap oid with
    | Heap.Str s -> Heap.Str (flip_string s)
    | Heap.Record r -> Heap.Record { r with Heap.class_name = flip_string r.Heap.class_name }
    | Heap.Array a -> Heap.Array { a with Heap.elem_type = flip_string a.Heap.elem_type }
    | Heap.Weak c ->
      Heap.Weak
        {
          Heap.target =
            (match c.Heap.target with
            | Pvalue.Ref o -> Pvalue.Ref (Oid.of_int (Oid.to_int o + 1))
            | Pvalue.Null -> Pvalue.Ref (Oid.of_int 999983)
            | v -> v);
        }
  in
  Heap.remove heap oid;
  Heap.insert heap oid corrupted;
  incr fired_count

let rename src dst =
  match in_scope () with
  | Some Rename_fails -> fire (Printf.sprintf "rename %s -> %s failed" src dst)
  | Some (Intr_storm n) -> storm_fire "rename" n
  | _ -> Sys.rename src dst

let fsync_channel oc =
  flush oc;
  match in_scope () with
  | Some Fsync_fails -> fire "fsync failed"
  | Some (Intr_storm n) -> storm_fire "fsync" n
  | _ -> Unix.fsync (Unix.descr_of_out_channel oc)

let fsync_dir path =
  match in_scope () with
  | Some Fsync_fails -> fire "directory fsync failed"
  | Some (Intr_storm n) -> storm_fire "fsync" n
  | _ ->
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* -- whole files ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let remove path = Sys.remove path

(* Truncate [path], write [data] and fsync it; the channel stays open. *)
let create_synced path data =
  let oc = open_out_bin path in
  (try
     output_string oc data;
     fsync_channel oc
   with e ->
     close_out_noerr oc;
     raise e);
  oc

(* Crash-atomic replace: write a temp file, fsync it, rename it over the
   target, then fsync the directory so the rename itself is durable.
   Rename alone is not crash-atomic on ext4: the new name can be lost on
   power failure if the directory entry was never flushed. *)
let replace_file path data =
  let tmp = path ^ ".tmp" in
  close_out (create_synced tmp data);
  rename tmp path;
  fsync_dir (Filename.dirname path)

(* -- append-only logs --------------------------------------------------------

   A header, then [Codec.put_frame] records.  The writer is a seekable
   channel, never O_APPEND: [pos_out] on an append-mode channel reads 0
   until the first write, which would poison the savepoints a failed
   append truncates back to.  [pos_out] counts buffered bytes, so a
   savepoint costs no write. *)

type log = out_channel

let create_log path ~header = create_synced path header

let append_frame oc payload =
  let w = Codec.writer () in
  Codec.put_frame w payload;
  output_string oc (Codec.contents w)

let sync_log = fsync_channel
let log_position = pos_out

let truncate_log oc pos =
  flush oc;
  Unix.ftruncate (Unix.descr_of_out_channel oc) pos;
  seek_out oc pos

let reopen_log path ~valid_bytes =
  Unix.truncate path valid_bytes;
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc valid_bytes;
  oc

let close_log = close_out_noerr

(* A process crash: close the descriptor without flushing, so buffered
   bytes are lost exactly as they would be. *)
let crash_log oc = try Unix.close (Unix.descr_of_out_channel oc) with _ -> ()
