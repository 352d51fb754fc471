(* Observability of compiles, getLink and the journal's batch records:
   each is counted, the op classes render and sit in a stable order, and
   — as for every other op class — the tracing-off path records no
   latency and no trace events. *)

open Pstore
open Hyperprog
open Obs_util

let password = Registry.built_in_password

let vm_with_hp () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password hp in
  (store, vm, uid)

let every_get_link_is_counted () =
  (* one count per lookup, whatever it resolves to: a live link, a bad
     link index, an unregistered uid *)
  let store, vm, uid = vm_with_hp () in
  let obs = Store.obs store in
  List.iteri
    (fun i (hp, link) ->
      ignore (Registry.try_get_link vm ~password ~hp ~link);
      check_int (Printf.sprintf "lookup %d counted" (i + 1)) (i + 1) (Obs.count obs Obs.Get_link))
    [ (uid, 0); (uid, 2); (uid, 99); (uid + 1, 0); (uid, 0) ]

let traced_compiles_are_counted () =
  let store, vm = fresh_hyper_vm () in
  let obs = Store.obs store in
  Obs.set_enabled obs true;
  let src = "public class ObsK { public static int v() { return 5; } }" in
  ignore (Dynamic_compiler.compile_strings vm ~names:[ "ObsK" ] [ src ]);
  ignore (Dynamic_compiler.compile_strings vm ~names:[ "ObsK" ] [ src ]);
  check_int "both compiles counted" 2 (Obs.count obs Obs.Compile);
  check_bool "the compile span has a latency" true (Obs.latency obs Obs.Compile <> None)

let group_commit_counted_per_batch () =
  with_store_file (fun path ->
      let store =
        Store.create ~config:{ Store.Config.default with Store.Config.backing = Some path } ()
      in
      let obs = Store.obs store in
      let a = Store.Session.alloc_record (Store.default_session store) "A" [| Pvalue.Int 0l; Pvalue.Null |] in
      Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
      Store.stabilise store (* compaction, not a batch *);
      check_int "no batches yet" 0 (Obs.count obs Obs.Group_commit);
      for i = 1 to 3 do
        (* multi-op delta: one batch record per stabilise *)
        Store.Session.set_field (Store.default_session store) a 0 (Pvalue.Int (Int32.of_int i));
        Store.Session.set_blob (Store.default_session store) "b" (string_of_int i);
        Store.stabilise store
      done;
      check_int "one group-commit per batched stabilise" 3
        (Obs.count obs Obs.Group_commit);
      (* a single-op delta keeps the legacy framing: no batch counted *)
      Store.Session.set_field (Store.default_session store) a 0 (Pvalue.Int 99l);
      Store.stabilise store;
      check_int "single-op deltas are not batches" 3 (Obs.count obs Obs.Group_commit);
      check_bool "appends were counted alongside" true
        (Obs.count obs Obs.Journal_append >= 4);
      Store.close store)

let new_ops_have_names_and_order () =
  (* every new op renders, and all_ops appends at the end so existing
     counts-order expectations are unchanged *)
  check_output "group-commit name" "group-commit" (Obs.op_name Obs.Group_commit);
  check_output "net-request name" "net-request" (Obs.op_name Obs.Net_request);
  check_output "net-error name" "net-error" (Obs.op_name Obs.Net_error);
  match List.rev Obs.all_ops with
  | Obs.Net_error :: Obs.Net_request :: Obs.Conflict :: Obs.Session_commit :: Obs.Degraded_op
    :: Obs.Repair :: Obs.Group_commit :: _ -> ()
  | _ -> Alcotest.fail "new op classes must sit at the end of all_ops"

let tracing_off_path_unchanged () =
  let store, vm, uid = vm_with_hp () in
  let obs = Store.obs store in
  Obs.clear_events obs;
  check_bool "tracing starts off" false (Obs.enabled obs);
  for i = 0 to 7 do
    ignore (Registry.try_get_link vm ~password ~hp:uid ~link:(i mod 2))
  done;
  check_int "every lookup counted" 8 (Obs.count obs Obs.Get_link);
  check_int "no trace events while tracing is off" 0 (List.length (Obs.events obs));
  check_bool "no latency recorded for the lookups" true
    (Obs.latency obs Obs.Get_link = None);
  (* flip tracing on: the same path now records spans *)
  Obs.set_enabled obs true;
  ignore (Registry.try_get_link vm ~password ~hp:uid ~link:0);
  check_bool "tracing on records the span" true (Obs.latency obs Obs.Get_link <> None)

let suite =
  [
    test "every getLink is counted, failed ones too" every_get_link_is_counted;
    test "traced compiles are counted with a latency" traced_compiles_are_counted;
    test "group commits are counted per batch record" group_commit_counted_per_batch;
    test "new op classes render and extend all_ops at the end" new_ops_have_names_and_order;
    test "the tracing-off path is unchanged" tracing_off_path_unchanged;
  ]
