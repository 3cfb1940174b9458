open Safeopt_exec
open Safeopt_lang

type t = Sc | Tso | Pso

let all = [ Sc; Tso; Pso ]
let name = function Sc -> "sc" | Tso -> "tso" | Pso -> "pso"
let pp ppf m = Fmt.string ppf (name m)

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "sc" -> Ok Sc
  | "tso" -> Ok Tso
  | "pso" -> Ok Pso
  | other ->
      Error (Printf.sprintf "unknown memory model %S (expected sc, tso or pso)" other)

let equal a b = a = b
let catch_fire = function Sc -> true | Tso | Pso -> false

let describe = function
  | Sc ->
      "sequential consistency (language model: racy programs catch fire, \
       safety is the DRF guarantee)"
  | Tso ->
      "total store order (hardware model: one FIFO store buffer per thread, \
       safety is behaviour inclusion)"
  | Pso ->
      "partial store order (hardware model: per-location store buffers, \
       safety is behaviour inclusion)"

let behaviours ?fuel ?max_states ?stats m p =
  match m with
  | Sc -> Interp.behaviours ?fuel ?max_states ?stats p
  | Tso -> Store_buffer.Tso.program_behaviours ?fuel ?max_states ?stats p
  | Pso -> Store_buffer.Pso.program_behaviours ?fuel ?max_states ?stats p

let weak_behaviours ?fuel ?max_states ?stats ?(than = Sc) m p =
  Behaviour.Set.diff
    (behaviours ?fuel ?max_states ?stats m p)
    (behaviours ?fuel ?max_states ?stats than p)

let replays ?fuel ?max_states m p b =
  Behaviour.Set.mem b (behaviours ?fuel ?max_states m p)
