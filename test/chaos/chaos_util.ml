(* Shared plumbing for the chaos suites: scratch directories and
   sharded store configs with the circuit breaker armed and retry
   on. *)

open Pstore
include Test_support.Support

let with_dir f = with_dir ~prefix:"chaos" f
let sp = Printf.sprintf

let chaos_config ?(shards = 4) ?(breaker = 2) ?(retry = true)
    ?(compaction_limit = 32) path =
  {
    Store.Config.default with
    Store.Config.compaction_limit;
    backing = Some path;
    retry;
    breaker;
    shards;
  }
