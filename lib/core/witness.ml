open Safeopt_trace
open Safeopt_exec
module Model = Safeopt_model.Memory_model

type evidence =
  | New_behaviour of Behaviour.t
  | Race_introduced of Interleaving.t
  | Relation_failure of Trace.t

type 'p t = {
  original : 'p;
  transformed : 'p;
  evidence : evidence;
  model : Model.t;
}

let make ?(model = Model.Sc) ~original ~transformed evidence =
  { original; transformed; evidence; model }

let pp_evidence ppf = function
  | New_behaviour b ->
      Fmt.pf ppf "@[<v2>new behaviour (not producible by the original):@ %a@]"
        Behaviour.pp b
  | Race_introduced i ->
      Fmt.pf ppf
        "@[<v2>race introduced (original is DRF; last two actions \
         conflict):@ %a@]"
        Interleaving.pp i
  | Relation_failure t ->
      Fmt.pf ppf "@[<v2>transformed trace with no semantic witness:@ %a@]"
        Trace.pp t

let pp pp_program ppf w =
  Fmt.pf ppf "@[<v>@[<v2>original:@ %a@]@ @[<v2>transformed:@ %a@]@ %a%a@]"
    pp_program w.original pp_program w.transformed pp_evidence w.evidence
    (fun ppf m ->
      if not (Model.equal m Model.Sc) then
        Fmt.pf ppf "@ (under the %a memory model)" Model.pp m)
    w.model

let map f w = { w with original = f w.original; transformed = f w.transformed }
