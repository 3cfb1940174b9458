open Safeopt_trace

let make ts =
  let tids = Traceset.thread_ids ts in
  let n = match List.rev tids with [] -> 0 | t :: _ -> t + 1 in
  let steps (tid, prefix) =
    (* Every [a] with [prefix ++ [a]] in [ts], descending: the order in
       which the scheduler explores the steps. *)
    let succ = List.rev_map fst (Traceset.children prefix ts) in
    (* Entry points: from the empty trace, thread [tid] may only start
       itself. *)
    let succ =
      List.filter
        (fun a ->
          match a with
          | Action.Start e -> prefix = [] && Thread_id.equal e tid
          | _ -> prefix <> [])
        succ
    in
    let read_locs =
      List.filter_map
        (function Action.Read (l, _) -> Some l | _ -> None)
        succ
      |> List.sort_uniq Location.compare
    in
    let reads =
      List.map
        (fun l ->
          System.Read
            ( l,
              fun v ->
                let ext = prefix @ [ Action.Read (l, v) ] in
                if Traceset.mem ext ts then Some (tid, ext) else None ))
        read_locs
    in
    let rmw_locs =
      List.filter_map
        (function Action.Rmw (l, _, _) -> Some l | _ -> None)
        succ
      |> List.sort_uniq Location.compare
    in
    let rmws =
      List.map
        (fun l ->
          System.Rmw
            ( l,
              fun v ->
                (* Offer every successor RMW of [l] whose read value is
                   the one the scheduler supplies. *)
                List.filter_map
                  (function
                    | Action.Rmw (l', r, w)
                      when Location.equal l l' && Value.equal r v ->
                        Some (w, (tid, prefix @ [ Action.Rmw (l, v, w) ]))
                    | _ -> None)
                  succ ))
        rmw_locs
    in
    let others =
      List.filter_map
        (fun a ->
          match a with
          | Action.Read _ | Action.Rmw _ -> None
          | _ -> Some (System.Emit (a, (tid, prefix @ [ a ]))))
        succ
    in
    reads @ rmws @ others
  in
  {
    System.initial = List.init n (fun i -> (i, []));
    steps;
    key = System.encode;
    local = (fun _ -> false);
  }
