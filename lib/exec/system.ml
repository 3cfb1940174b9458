open Safeopt_trace

type 'ts step =
  | Emit of Action.t * 'ts
  | Read of Location.t * (Value.t -> 'ts option)
  | Rmw of Location.t * (Value.t -> (Value.t * 'ts) list)

type 'ts t = {
  initial : 'ts list;
  steps : 'ts -> 'ts step list;
  key : 'ts -> string;
  local : Action.t -> bool;
}

let encode v = Marshal.to_string v [ Marshal.No_sharing ]
