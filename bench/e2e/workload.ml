(* The four workloads: their inputs and the verdict each input must get.

   One input is one program through one pipeline under one (validator,
   model); its verdict time covers parse, rewrite and validate, i.e. the
   library path of [drfopt optimize --validate-each]. *)

open Safeopt_trace
open Safeopt_lang
open Safeopt_opt
module Model = Safeopt_model.Memory_model
module Clock = Safeopt_obs.Clock

type verdict = Accepted | Rejected of string | Undecided of string

let verdict_to_string = function
  | Accepted -> "accepted"
  | Rejected pass -> "rejected@" ^ pass
  | Undecided why -> "undecided:" ^ why

let verdict_of_string s =
  match String.index_opt s '@' with
  | _ when s = "accepted" -> Accepted
  | Some i when String.sub s 0 i = "rejected" ->
      Rejected (String.sub s (i + 1) (String.length s - i - 1))
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "undecided" ->
          Undecided (String.sub s (i + 1) (String.length s - i - 1))
      | _ -> invalid_arg ("verdict: " ^ s))

let decided = function Accepted | Rejected _ -> true | Undecided _ -> false

type input = {
  name : string;
  source : string;  (** concrete syntax: parsing is part of the verdict *)
  spec : Pipeline.spec;
  validator : Validate.validator;
  model : Model.t;
  max_states : int option;
  expected : verdict;
}

type t = {
  wname : string;
  inputs : input array;
  isolate : bool;
      (** run the inputs in a forked worker, each under {!deadline} *)
}

let names =
  [ "corpus-auto"; "corpus-models"; "thread-scaling"; "random-pipelines" ]

(* Per-input deadline of the isolated workload.  A short limit keeps the
   heavy tail (single inputs run for minutes) from dominating a run; it
   is the time limit behind [decided_share]. *)
let deadline = 0.25

(* The exhaustive reference of a random input gets longer: an input
   without a reference is dropped from the workload. *)
let reference_deadline = 10.

(* --- Verdicts ---------------------------------------------------------- *)

(* The first step whose validation is not ok decides: a forced rung that
   could not decide stops the pipeline without a witness, so it is read
   from the steps, not from [failure]. *)
let verdict_of (o : Pipeline.outcome) =
  let failed (ps : Pipeline.pass_stats) =
    match ps.Pipeline.ps_validation with
    | Some v -> not (Validate.outcome_ok v)
    | None -> false
  in
  match List.find_opt failed o.Pipeline.steps with
  | None -> Accepted
  | Some ps -> (
      match ps.Pipeline.ps_validation with
      | Some { Validate.out_method = Validate.Inconclusive; _ } ->
          Undecided "inconclusive"
      | _ -> Rejected ps.Pipeline.ps_pass)

let pipeline (i : input) =
  Pipeline.run ~jobs:1 ~validate_each:true ~validator:i.validator
    ~model:i.model ?max_states:i.max_states i.spec
    (Parser.parse_program i.source)

(* One untraced verdict: the end-to-end measurement. *)
let run i =
  let t0 = Clock.now () in
  let v =
    match pipeline i with
    | o -> verdict_of o
    | exception e -> Undecided (Printexc.to_string e)
  in
  (v, Clock.elapsed t0)

(* --- Known answers ----------------------------------------------------- *)

let known =
  lazy
    (let tbl = Hashtbl.create 160 in
     String.split_on_char '\n' Expected.text
     |> List.iter (fun line ->
            match String.split_on_char ' ' (String.trim line) with
            | [ w; name; v ] when w.[0] <> '#' ->
                Hashtbl.replace tbl (w, name) (verdict_of_string v)
            | _ -> ());
     tbl)

let expected wname name =
  match Hashtbl.find_opt (Lazy.force known) (wname, name) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "expected.txt has no %s %s" wname name)

(* --- Workloads --------------------------------------------------------- *)

let spec s = match Pipeline.parse s with Ok s -> s | Error e -> failwith e

let input wname ?max_states ~validator ~model ~spec name source =
  {
    name;
    source;
    spec;
    validator;
    model;
    max_states;
    expected = expected wname name;
  }

let corpus_auto () =
  let spec = spec "constprop;copyprop;cse*;dead-moves;dse;normalise" in
  List.map
    (fun (l : Safeopt_litmus.Litmus.t) ->
      input "corpus-auto" ~validator:Validate.Auto ~model:Model.Sc ~spec
        l.name l.source)
    Safeopt_litmus.Corpus.all

let corpus_models () =
  let spec =
    spec "constprop;copyprop;cse*;dead-moves;dse;store-load-reorder;normalise"
  in
  List.concat_map
    (fun model ->
      List.map
        (fun (l : Safeopt_litmus.Litmus.t) ->
          input "corpus-models" ~validator:Validate.Exhaustive ~model ~spec
            (Model.name model ^ "/" ^ l.name)
            l.source)
        Safeopt_litmus.Corpus.all)
    Model.all

(* n threads, each reading a private location twice and printing the
   second read: per-thread tracesets stay constant as n grows while the
   interleavings explode, so refine stays flat and exhaustive does not. *)
let redundant_reads n =
  {
    Ast.threads =
      List.init n (fun i ->
          let x = Printf.sprintf "x%d" i in
          [ Ast.Load ("r1", x); Ast.Load ("r2", x); Ast.Print "r2" ]);
    volatile = Location.Volatile.none;
  }

let thread_scaling () =
  let spec = spec "cse" in
  let family validator tag ns =
    List.map
      (fun n ->
        input "thread-scaling" ~max_states:200_000 ~validator ~model:Model.Sc
          ~spec
          (Printf.sprintf "%s/%d" tag n)
          (Pp.program_to_string (redundant_reads n)))
      ns
  in
  family Validate.Auto "auto" [ 2; 3; 4; 5; 6; 7; 8 ]
  @ family Validate.Exhaustive "exhaustive" [ 2; 3; 4; 5; 6; 7 ]

(* Random programs are drawn from one fixed population, so every seed
   measures the same mix of cheap inputs and heavy tail and runs stay
   comparable across seeds.  The seed picks an isomorphic variant of each
   program: a permutation of its threads, locations and registers. *)
let population_seed = 1

let shuffle rand l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rename rand (p : Ast.program) =
  let perm xs = List.combine xs (shuffle rand xs) in
  let locs = perm Safeopt_gen.Generators.locations in
  let regs = perm [ "r1"; "r2"; "r3"; "r4" ] in
  let l x = Option.value ~default:x (List.assoc_opt x locs) in
  let r x = Option.value ~default:x (List.assoc_opt x regs) in
  let op = function Ast.Reg x -> Ast.Reg (r x) | Ast.Nat _ as n -> n in
  let test = function
    | Ast.Eq (a, b) -> Ast.Eq (op a, op b)
    | Ast.Ne (a, b) -> Ast.Ne (op a, op b)
  in
  let rmw = function
    | Ast.Cas (a, b) -> Ast.Cas (op a, op b)
    | Ast.Faa a -> Ast.Faa (op a)
    | Ast.Xchg a -> Ast.Xchg (op a)
  in
  let rec stmt = function
    | Ast.Store (x, y) -> Ast.Store (l x, r y)
    | Ast.Load (y, x) -> Ast.Load (r y, l x)
    | Ast.Move (y, o) -> Ast.Move (r y, op o)
    | Ast.Print y -> Ast.Print (r y)
    | Ast.Atomic (y, x, a) -> Ast.Atomic (r y, l x, rmw a)
    | Ast.Block b -> Ast.Block (List.map stmt b)
    | Ast.If (t, a, b) -> Ast.If (test t, stmt a, stmt b)
    | Ast.While (t, s) -> Ast.While (test t, stmt s)
    | (Ast.Lock _ | Ast.Unlock _ | Ast.Skip) as s -> s
  in
  {
    Ast.threads = shuffle rand (List.map (List.map stmt) p.Ast.threads);
    volatile =
      Location.Volatile.of_list
        (List.map l (Location.Volatile.to_list p.Ast.volatile));
  }

exception Wrong_reference of input * verdict

(* The expected verdict of a random input is the [Exhaustive] verdict
   computed here; a pipeline of safe passes only must moreover be
   accepted (Theorems 1-4).  The naive reference enumerator planned for
   witness certification is meant to replace this reference, which still
   trusts the explorer under test.  References run in a forked worker
   under a long deadline, and a program without one is dropped. *)
let random_pipelines ~seed ~count =
  let gen = Random.State.make [| population_seed |] in
  let variant = Random.State.make [| seed |] in
  let registry = Array.of_list Pipeline.registry in
  let candidate k =
    let p = QCheck2.Gen.generate1 ~rand:gen Safeopt_gen.Generators.program in
    let passes =
      List.init 3 (fun _ ->
          registry.(Random.State.int gen (Array.length registry)))
    in
    {
      name = Printf.sprintf "#%d" k;
      source = Pp.program_to_string (rename variant p);
      spec = List.map (fun pass -> { Pipeline.pass; fixpoint = false }) passes;
      validator = Validate.Auto;
      model = Model.Sc;
      max_states = Some 200_000;
      expected = Accepted;
    }
  in
  let candidates = Array.init (count + (count / 10)) candidate in
  let worker =
    Isolate.create (fun k ~marker:_ ~result ->
        let i = candidates.(k) in
        result
          (verdict_to_string
             (fst (run { i with validator = Validate.Exhaustive }))))
  in
  let reference k =
    match (Isolate.run worker ~deadline:reference_deadline k).results with
    | [ v ] -> verdict_of_string v
    | _ -> Undecided "no reference"
  in
  let rec pick k acc n =
    if n = count then List.rev acc
    else if k = Array.length candidates then
      failwith "random-pipelines: too few programs with a reference"
    else
      let i = candidates.(k) in
      match reference k with
      | Undecided _ -> pick (k + 1) acc n
      | v ->
          if
            List.for_all (fun (s : Pipeline.step) -> s.pass.Pass.safe) i.spec
            && v <> Accepted
          then raise (Wrong_reference (i, v));
          pick (k + 1) ({ i with expected = v } :: acc) (n + 1)
  in
  Fun.protect
    ~finally:(fun () -> Isolate.stop worker)
    (fun () -> pick 0 [] 0)

let make ~random_count ~seed wname =
  let inputs, isolate =
    match wname with
    | "corpus-auto" -> (corpus_auto (), false)
    | "corpus-models" -> (corpus_models (), false)
    | "thread-scaling" -> (thread_scaling (), false)
    | "random-pipelines" -> (random_pipelines ~seed ~count:random_count, true)
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  { wname; inputs = Array.of_list inputs; isolate }
