type state = Arriving | Admitted | Streaming | Completed | Retrying | Shed | Rejected

type msg = Join | Grant | Deny | Retry_after | First_chunk | Shed_notice | Complete

let transition state msg =
  match (state, msg) with
  | Arriving, Grant -> Some Admitted
  | Arriving, Deny -> Some Rejected
  | Arriving, Retry_after -> Some Retrying
  | Arriving, Shed_notice -> Some Shed
  | Admitted, First_chunk -> Some Streaming
  (* box loss or a missed start-up deadline: back to the retry loop *)
  | Admitted, Retry_after -> Some Retrying
  | Admitted, Shed_notice -> Some Shed
  | Streaming, Complete -> Some Completed
  | Streaming, Retry_after -> Some Retrying
  | Streaming, Shed_notice -> Some Shed
  | Retrying, Join -> Some Arriving
  | _ -> None

let state_name = function
  | Arriving -> "arriving"
  | Admitted -> "admitted"
  | Streaming -> "streaming"
  | Completed -> "completed"
  | Retrying -> "retrying"
  | Shed -> "shed"
  | Rejected -> "rejected"
