type state = Arriving | Admitted | Streaming | Completed | Retrying | Shed | Rejected

type deny_reason = Box_offline | Box_busy | No_capacity | Budget_exhausted | Invalid

type msg =
  | Join of { session : int; box : int; video : int }
  | Grant of { session : int; deadline : int }
  | Deny of { session : int; reason : deny_reason }
  | Retry_after of { session : int; at : int; attempt : int }
  | First_chunk of { session : int; round : int }
  | Shed_notice of { session : int }
  | Complete of { session : int; round : int }

let deny_terminal = function
  | Budget_exhausted | Invalid -> true
  | Box_offline | Box_busy | No_capacity -> false

let transition state msg =
  match (state, msg) with
  | Arriving, Grant _ -> Some Admitted
  | Arriving, Deny { reason; _ } -> Some (if deny_terminal reason then Rejected else Retrying)
  | Arriving, Retry_after _ -> Some Retrying
  | Arriving, Shed_notice _ -> Some Shed
  | Admitted, First_chunk _ -> Some Streaming
  (* box loss or a missed start-up deadline: back to the retry loop *)
  | Admitted, Retry_after _ -> Some Retrying
  | Admitted, Shed_notice _ -> Some Shed
  | Streaming, Complete _ -> Some Completed
  | Streaming, Retry_after _ -> Some Retrying
  | Streaming, Shed_notice _ -> Some Shed
  | Retrying, Join _ -> Some Arriving
  | Retrying, Deny { reason; _ } when deny_terminal reason -> Some Rejected
  | Retrying, Shed_notice _ -> Some Shed
  | _ -> None

let is_terminal = function
  | Completed | Shed | Rejected -> true
  | Arriving | Admitted | Streaming | Retrying -> false

let state_name = function
  | Arriving -> "arriving"
  | Admitted -> "admitted"
  | Streaming -> "streaming"
  | Completed -> "completed"
  | Retrying -> "retrying"
  | Shed -> "shed"
  | Rejected -> "rejected"
