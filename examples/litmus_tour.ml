(* Tour the whole litmus corpus through every analysis in the library:
   SC behaviours, race freedom, TSO/PSO weakness and fence inference —
   a one-screen summary of what the toolkit knows about each shape.
   This example uses the umbrella [Safeopt] module.

   Run with: dune exec examples/litmus_tour.exe *)

open Safeopt

let () =
  Fmt.pr "%-18s %-5s %-28s %-10s %-10s %s@." "test" "drf" "maximal behaviours"
    "tso-weak" "pso-weak" "fences";
  Fmt.pr "%s@." (String.make 96 '-');
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let o = Litmus.check t in
      assert (Litmus.passed o);
      let show_weak w =
        if Behaviour.Set.is_empty w then "-"
        else Fmt.str "%a" Behaviour.Set.pp w
      in
      let _, promoted = Robustness.enforce p in
      Fmt.pr "%-18s %-5b %-28s %-10s %-10s %s@." t.Litmus.name
        o.Litmus.drf_actual
        (String.concat " " (Interp.behaviour_strings o.Litmus.behaviours)
        |> fun s ->
         if String.length s > 26 then String.sub s 0 23 ^ "..." else s)
        (show_weak Memory_model.(weak_behaviours Tso p))
        (show_weak Memory_model.(weak_behaviours Pso p))
        (if promoted = [] then "-" else String.concat "," promoted))
    Corpus.all;
  Fmt.pr "@.%d tests, all expectations hold.@." (List.length Corpus.all)
