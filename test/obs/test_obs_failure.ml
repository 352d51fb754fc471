(* The unified typed failure: try_get / try_field return the same
   Failure.t the registry's try_get_link uses, with stable wording from
   Failure.describe. *)

open Pstore
open Obs_util

let try_get_reports_quarantine () =
  let store = Store.create () in
  let a = Store.Session.alloc_string (Store.default_session store) "precious" in
  Store.quarantine_oid store a "checksum mismatch (test)";
  match Store.Session.try_get (Store.default_session store) a with
  | Error (Failure.Quarantined { oid; reason }) ->
    check_int "carries the oid" (Oid.to_int a) (Oid.to_int oid);
    check_output "carries the reason" "checksum mismatch (test)" reason
  | Ok _ -> Alcotest.fail "quarantined oid must not read"
  | Error e -> Alcotest.failf "wrong failure: %s" (Failure.describe e)

let try_get_reports_dangling () =
  let store = Store.create () in
  match Store.Session.try_get (Store.default_session store) (Oid.of_int 9999) with
  | Error (Failure.Dangling oid) -> check_int "names the oid" 9999 (Oid.to_int oid)
  | Ok _ -> Alcotest.fail "a dangling oid must not read"
  | Error e -> Alcotest.failf "wrong failure: %s" (Failure.describe e)

let try_field_reports_bad_index () =
  let store = Store.create () in
  let a = Store.Session.alloc_record (Store.default_session store) "Holder" [| Pvalue.Int 1l |] in
  (match Store.Session.try_field (Store.default_session store) a 0 with
  | Ok (Pvalue.Int 1l) -> ()
  | _ -> Alcotest.fail "in-range field must read");
  match Store.Session.try_field (Store.default_session store) a 7 with
  | Error (Failure.Bad_index { container; index }) ->
    check_output "names the class" "Holder" container;
    check_int "names the index" 7 index
  | Ok _ -> Alcotest.fail "out-of-range field must not read"
  | Error e -> Alcotest.failf "wrong failure: %s" (Failure.describe e)

let describe_wording_is_stable () =
  check_output "quarantined"
    "quarantined @7: bit rot"
    (Failure.describe (Failure.Quarantined { oid = Oid.of_int 7; reason = "bit rot" }));
  check_output "dangling" "dangling reference @9"
    (Failure.describe (Failure.Dangling (Oid.of_int 9)));
  check_output "collected" "hyper-program 3 has been garbage collected"
    (Failure.describe (Failure.Collected 3));
  check_output "bad index" "no index 4 in Person"
    (Failure.describe (Failure.Bad_index { container = "Person"; index = 4 }))

let suite =
  [
    test "try_get reports quarantine as data" try_get_reports_quarantine;
    test "try_get reports dangling references" try_get_reports_dangling;
    test "try_field reports a bad index" try_field_reports_bad_index;
    test "describe wording is stable" describe_wording_is_stable;
  ]
