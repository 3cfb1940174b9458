(* drfbench self-test: the percentile rule, and a smoke run whose metric
   names must be exactly the ones BENCHMARK.json declares. *)

open Drfbench
module Json = Safeopt_obs.Json

let test_small_samples () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 0.)) "p50 of 5" 3. (Stats.percentile ~pct:50 a);
  Alcotest.(check (float 0.))
    "p90 of 5 is the max" 5.
    (Stats.percentile ~pct:90 a);
  Alcotest.(check (float 0.)) "p90 of 1" 7. (Stats.percentile ~pct:90 [| 7. |]);
  Alcotest.(check int) "p90 of 5 is rank 4" 4 (Stats.rank ~pct:90 5);
  Alcotest.(check (float 0.))
    "median of 4" 2.5
    (Stats.median [ 4.; 1.; 3.; 2. ])

let test_ties () =
  let a = [| 1.; 2.; 2.; 2.; 2.; 3. |] in
  Alcotest.(check (float 0.)) "p50 in a tie" 2. (Stats.percentile ~pct:50 a);
  Alcotest.(check (float 0.))
    "p90 above the tie" 3.
    (Stats.percentile ~pct:90 a)

let test_p90_rank () =
  (* p90 of 100 samples leaves exactly ten above it *)
  Alcotest.(check int) "rank of p90 of 100" 89 (Stats.rank ~pct:90 100);
  (* 0.9 *. 110. is 99.00000000000001 in floats; the rank must not move *)
  Alcotest.(check int) "rank of p90 of 110" 98 (Stats.rank ~pct:90 110);
  Alcotest.(check int) "rank of p90 of 99" 89 (Stats.rank ~pct:90 99)

let declared key =
  let text =
    In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all
  in
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Option.get (Option.bind (Json.member key j) Json.to_list)
      |> List.map (fun m ->
             let field f =
               Option.get (Option.bind (Json.member f m) Json.to_str)
             in
             (field "name", field "unit"))
      |> List.sort compare

let smoke =
  {
    Runner.default with
    seconds = 0.;
    rounds = Some 1;
    setups = 1;
    random_count = 40;
  }

let check_run ~traced key wname () =
  let r = Runner.run ~traced smoke wname in
  List.iter print_endline r.notes;
  Alcotest.(check bool) "every verdict is its known answer" true r.correct;
  Alcotest.(check (list (pair string string)))
    ("metric names and units of " ^ key)
    (declared key)
    (List.sort compare (List.map (fun (n, u, _) -> (n, u)) r.metrics))

let () =
  Alcotest.run "drfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "n < 10" `Quick test_small_samples;
          Alcotest.test_case "ties" `Quick test_ties;
          Alcotest.test_case "p90 rank" `Quick test_p90_rank;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "corpus-models end to end" `Quick
            (check_run ~traced:false "end_to_end" "corpus-models");
          Alcotest.test_case "random-pipelines end to end" `Quick
            (check_run ~traced:false "end_to_end" "random-pipelines");
          Alcotest.test_case "corpus-models per layer" `Quick
            (check_run ~traced:true "per_layer" "corpus-models");
          Alcotest.test_case "random-pipelines per layer" `Quick
            (check_run ~traced:true "per_layer" "random-pipelines");
        ] );
    ]
