(* The on-disk format pin.  A fixed script drives a store through every
   kind of file write it makes (first compaction, single-op journal
   appends, an over-limit compaction, gc, quarantine and its clear, an
   aborted transaction, a session commit, close, reopen, crash and
   reopen) on one shard and on four.  After every step the names and
   bytes of every file in the store directory are hashed; the test
   compares one digest per shard count against constants.

   A change that alters what the store writes fails here.  A change of
   format made on purpose updates the constants (printed on failure). *)

open Pstore
open Crash_util

let expected = [ (1, "3b3b87b50d176601d4022b0ebad7692c"); (4, "922b16708a01d7402c52b95bd775e774") ]

(* Names and bytes of every file under [dir], in name order. *)
let snapshot buf dir =
  let names = Sys.readdir dir in
  Array.sort String.compare names;
  Array.iter
    (fun name ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Digest.to_hex (Digest.string (read_file (Filename.concat dir name))));
      Buffer.add_char buf '\n')
    names;
  Buffer.add_string buf "--\n"

let script ~shards dir =
  let buf = Buffer.create 4096 in
  let step () = snapshot buf dir in
  let path = Filename.concat dir "store.img" in
  let config =
    { Store.Config.default with Store.Config.backing = Some path; shards; compaction_limit = 8 }
  in
  let s = Store.create ~config () in
  let people =
    List.init 6 (fun i ->
        let name = Store.Session.alloc_string (Store.default_session s) (Printf.sprintf "p%d" i) in
        Store.Session.alloc_record (Store.default_session s) "Person" [| Pvalue.Ref name; Pvalue.Int (Int32.of_int i) |])
  in
  List.iteri (fun i o -> Store.Session.set_root (Store.default_session s) (Printf.sprintf "r%d" i) (Pvalue.Ref o)) people;
  Store.Session.set_blob (Store.default_session s) "class:Person" "v1";
  Store.stabilise s;
  step ();
  (* single-op appends *)
  let p0 = List.hd people in
  Store.Session.set_field (Store.default_session s) p0 1 (Pvalue.Int 100l);
  Store.stabilise s;
  step ();
  Store.Session.set_root (Store.default_session s) "extra" (Pvalue.Int 7l);
  Store.stabilise s;
  step ();
  Store.Session.set_blob (Store.default_session s) "class:Person" "v2";
  Store.stabilise s;
  step ();
  (* a delta past the compaction limit *)
  for i = 0 to 23 do
    ignore (Store.Session.alloc_record (Store.default_session s) "Pt" [| Pvalue.Int (Int32.of_int i) |])
  done;
  Store.stabilise s;
  step ();
  (* gc cannot be journalled: the next stabilise compacts *)
  Store.Session.remove_root (Store.default_session s) "r5";
  ignore (Store.gc s);
  Store.stabilise s;
  step ();
  (* quarantine and its clear *)
  let p1 = List.nth people 1 in
  Store.quarantine_oid s p1 "format pin";
  Store.stabilise s;
  step ();
  Store.clear_quarantine s p1;
  Store.stabilise s;
  step ();
  (* an aborted transaction that had stabilised *)
  (match
     Store.with_rollback s (fun () ->
         Store.Session.set_root (Store.default_session s) "doomed" (Pvalue.Int 1l);
         Store.stabilise s;
         failwith "abort")
   with
  | Ok () -> Alcotest.fail "rollback body returned"
  | Error _ -> ());
  Store.stabilise s;
  step ();
  (* a session commit *)
  let sess = Store.open_session s in
  Store.Session.set_root sess "committed" (Pvalue.Int 42l);
  Store.Session.set_field sess p0 1 (Pvalue.Int 101l);
  Store.Session.commit sess;
  step ();
  Store.close s;
  step ();
  (* reopen, append, crash with a delta buffered *)
  let s = Store.open_file ~config path in
  step ();
  Store.Session.set_root (Store.default_session s) "after-reopen" (Pvalue.Int 3l);
  Store.stabilise s;
  step ();
  Store.Session.set_root (Store.default_session s) "lost" (Pvalue.Int 4l);
  Store.crash s;
  step ();
  let s = Store.open_file ~config path in
  step ();
  Store.Session.set_root (Store.default_session s) "after-crash" (Pvalue.Int 5l);
  Store.stabilise s;
  Store.close s;
  step ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pin () =
  List.iter
    (fun (shards, want) ->
      with_dir (fun dir ->
          check_output (Printf.sprintf "file digest over the script, %d shard(s)" shards) want
            (script ~shards dir)))
    expected

let suite = [ test "on-disk bytes match the pinned digests (shards 1 and 4)" pin ]
