(* Connection authentication: the wire protocol's Hello gate.

   The server fronts the hyper-program registry, so it authenticates the
   way the registry does — the password "built into the system" (paper
   Section 4.2), checked with Registry.check_password.  Version skew is
   refused before the password is even looked at, so an old client gets
   a "proto" answer it can render, not an auth failure it would
   misreport. *)

open Hyperprog

type refusal = {
  code : string;
  message : string;
}

let refusals = ref 0
let refusal_count () = !refusals

let validate vm ~version ~password =
  if version <> Protocol.version then begin
    incr refusals;
    Error
      {
        code = Protocol.code_proto;
        message =
          Printf.sprintf "protocol version %d not supported (server speaks version %d)"
            version Protocol.version;
      }
  end
  else if not (Registry.check_password vm password) then begin
    incr refusals;
    Error { code = Protocol.code_auth; message = "registry password refused" }
  end
  else Ok ()
