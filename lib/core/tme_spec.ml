open Unityspec
open Clocks

type vtrace = (View.t, Msg.t) Sim.Trace.t

let report_of_verdicts ~me1 ~me2 ~me3 =
  Report.of_list
    [ ("ME1 (mutual exclusion)", me1);
      ("ME2 (starvation freedom)", me2);
      ("ME3 (FCFS)", me3) ]

(* ------------------------------------------------------------------ *)
(* The three clauses as incremental monitors: folds over view arrays
   (ME1, ME2) and the oracle entry stream (ME3).  A recorded trace is
   checked by folding the same monitors over it ([check_all]). *)

let eaters_of views =
  Array.fold_left (fun acc v -> if View.eating v then acc + 1 else acc) 0 views

let me1_online () =
  Online.invariant ~name:"ME1" (fun views -> eaters_of views <= 1)

let me2_online ~n =
  Online.all
    (List.init n (fun j ->
         Online.leads_to ~name:(Printf.sprintf "ME2.%d" j)
           (fun (views : View.t array) -> View.hungry views.(j))
           (fun views -> View.eating views.(j))))

(* ------------------------------------------------------------------ *)
(* Epoch-indexed monitors: the same spec, weakened per regime.  During
   a [Global] epoch the clauses above apply unchanged; during a
   [Split] epoch ME1 weakens to at-most-one-eater *per connected
   group*, ME2 stops opening obligations (a minority group may starve
   legitimately), and ME3 compares only entries that could have
   communicated (same group, or either in a global epoch).  A
   cross-epoch obligation watches regime changes: the eater set
   carried over a transition may violate the new topology (one eater
   per side of a heal); it is tolerated as long as it only shrinks,
   and must reach a topology-legal state before the run ends — a
   dual-holder surviving heal-complete is the violation the classical
   ME1 would have charged to the wrong epoch. *)

module Epoch = struct
  type row = {
    topo : Sim.Regime.topo;
    me1 : Temporal.verdict;
    row_entries : int;  (** CS entries while this epoch governed *)
  }

  type report = {
    rows : row list;
    heal : Temporal.verdict;
    me2 : Temporal.verdict;
    me3 : Temporal.verdict;
    split_entries : int;  (** CS entries during [Split] epochs *)
    snapshots : int;
  }

  type row_state = {
    r_topo : Sim.Regime.topo;
    mutable r_me1 : Temporal.verdict;
    mutable r_entries : int;
  }

  type obligation = {
    ob_pids : Sim.Pid.t list;  (** carried-over eaters, ascending *)
    ob_time : int;
    ob_idx : int;
  }

  type t = {
    n : int;
    cursor : Sim.Regime.cursor;
    rows : row_state array;
    mutable cur_epoch : int;
    mutable idx : int;  (** snapshots fed so far *)
    mutable obligation : obligation option;
    mutable heal : Temporal.verdict;  (** latches failed obligations *)
    mutable me2_m : (Sim.Regime.phase * View.t array) Online.t;
    mutable me3 : Temporal.verdict;
    mutable earlier : (Harness.entry_record * Sim.Regime.topo) list;
    mutable entry_idx : int;
    mutable split_entries : int;
  }

  let create ~n ~timeline =
    { n;
      cursor = Sim.Regime.cursor timeline;
      rows =
        Sim.Regime.epochs timeline
        |> List.map (fun topo ->
               { r_topo = topo; r_me1 = Temporal.Holds; r_entries = 0 })
        |> Array.of_list;
      cur_epoch = 0;
      idx = 0;
      obligation = None;
      heal = Temporal.Holds;
      me2_m =
        Online.all
          (List.init n (fun j ->
               Online.leads_to_gated
                 ~name:(Printf.sprintf "ME2.%d" j)
                 ~gate:(fun ((ph : Sim.Regime.phase), _) ->
                   ph = Sim.Regime.Global)
                 (fun ((_, views) : _ * View.t array) ->
                   View.hungry views.(j))
                 (fun (_, views) -> View.eating views.(j))));
      me3 = Temporal.Holds;
      earlier = [];
      entry_idx = 0;
      split_entries = 0 }

  let eater_pids views =
    let acc = ref [] in
    for j = Array.length views - 1 downto 0 do
      if View.eating views.(j) then acc := j :: !acc
    done;
    !acc

  (* at most one eater per connected group of [topo] *)
  let me1_ok (topo : Sim.Regime.topo) eaters =
    List.for_all
      (fun g ->
        List.length (List.filter (fun k -> List.mem k g) eaters) <= 1)
      topo.Sim.Regime.groups

  let pids_label pids =
    "{" ^ String.concat "," (List.map string_of_int pids) ^ "}"

  let subset a b = List.for_all (fun k -> List.mem k b) a

  let feed m ~time views =
    let topo = Sim.Regime.advance m.cursor time in
    let eaters = eater_pids views in
    if topo.Sim.Regime.epoch <> m.cur_epoch then begin
      m.cur_epoch <- topo.Sim.Regime.epoch;
      (* regime change: the CS holders observed at the first snapshot
         of the new regime carry over (an entry granted under the old
         topology can land in the boundary step itself, so the last
         pre-change snapshot under-counts).  If they violate the new
         topology they are on notice: tolerated only while shrinking,
         and the obligation must discharge before the run ends. *)
      if (not (me1_ok topo eaters)) && m.obligation = None then
        m.obligation <-
          Some { ob_pids = eaters; ob_time = time; ob_idx = m.idx }
    end;
    let row = m.rows.(topo.Sim.Regime.epoch) in
    let legal = me1_ok topo eaters in
    let tolerated =
      match m.obligation with
      | Some ob -> subset eaters ob.ob_pids
      | None -> false
    in
    if legal then m.obligation <- None;
    (if (not legal) && not tolerated then
       match row.r_me1 with
       | Temporal.Holds ->
         let bad_group =
           List.find_opt
             (fun g ->
               List.length (List.filter (fun k -> List.mem k g) eaters) > 1)
             topo.Sim.Regime.groups
         in
         let glabel =
           match bad_group with Some g -> pids_label g | None -> "{}"
         in
         row.r_me1 <-
           Temporal.Violated
             { at = m.idx;
               reason =
                 Printf.sprintf
                   "ME1[epoch %d]: concurrent CS holders %s in group %s"
                   topo.Sim.Regime.epoch (pids_label eaters) glabel }
       | _ -> ());
    (* ME2: obligations open only while the regime is global *)
    m.me2_m <- Online.feed m.me2_m (topo.Sim.Regime.phase, views);
    m.idx <- m.idx + 1

  let feed_entry m ~time (e : Harness.entry_record) =
    let topo = Sim.Regime.advance m.cursor time in
    let row = m.rows.(topo.Sim.Regime.epoch) in
    row.r_entries <- row.r_entries + 1;
    if topo.Sim.Regime.phase = Sim.Regime.Split then
      m.split_entries <- m.split_entries + 1;
    (match m.me3 with
     | Temporal.Holds ->
       let bad =
         List.exists
           (fun ((prev : Harness.entry_record), prev_topo) ->
             let comparable =
               (* entries in different groups of a split could not have
                  communicated; FCFS scopes to intra-group requests *)
               topo.Sim.Regime.phase = Sim.Regime.Global
               || prev_topo.Sim.Regime.phase = Sim.Regime.Global
               || Sim.Regime.same_group topo e.entry_pid prev.entry_pid
             in
             comparable
             && Clocks.Vector_clock.lt e.entry_req_vc prev.entry_req_vc)
           m.earlier
       in
       if bad then
         m.me3 <-
           Temporal.Violated
             { at = m.entry_idx;
               reason =
                 Printf.sprintf
                   "entry %d by process %d served a request that \
                    happened-before an already-served one"
                   m.entry_idx e.entry_pid }
     | _ -> ());
    m.earlier <- (e, topo) :: m.earlier;
    m.entry_idx <- m.entry_idx + 1

  let report m =
    let heal =
      match (m.heal, m.obligation) with
      | (Temporal.Violated _ as v), _ -> v
      | _, Some ob ->
        Temporal.Violated
          { at = ob.ob_idx;
            reason =
              Printf.sprintf
                "CS holders %s spanning the regime change at time %d \
                 were never resolved to one"
                (pids_label ob.ob_pids) ob.ob_time }
      | v, None -> v
    in
    let me2 = Online.verdict m.me2_m in
    { rows =
        Array.to_list m.rows
        |> List.map (fun r ->
               { topo = r.r_topo; me1 = r.r_me1; row_entries = r.r_entries });
      heal;
      me2;
      me3 = m.me3;
      split_entries = m.split_entries;
      snapshots = m.idx }

  let safe (r : report) =
    List.for_all (fun row -> Temporal.is_ok row.me1) r.rows
    && Temporal.is_ok r.heal

  let ok ?(margin = 300) (r : report) =
    safe r && Temporal.is_ok r.me3
    && Temporal.ok_with_tail ~trace_len:r.snapshots ~margin r.me2

  let pp_row ppf row =
    let phase =
      match row.topo.Sim.Regime.phase with
      | Sim.Regime.Global -> "global"
      | Sim.Regime.Split -> "split"
    in
    Format.fprintf ppf "epoch %d %-6s since %5d  %-18s entries %3d  ME1 %a"
      row.topo.Sim.Regime.epoch phase row.topo.Sim.Regime.since
      (Sim.Regime.groups_label row.topo)
      row.row_entries Temporal.pp_verdict row.me1

  let pp ppf (r : report) =
    List.iter (fun row -> Format.fprintf ppf "%a@," pp_row row) r.rows;
    Format.fprintf ppf "heal obligation: %a@," Temporal.pp_verdict r.heal;
    Format.fprintf ppf "ME2 (global epochs): %a@," Temporal.pp_verdict r.me2;
    Format.fprintf ppf "ME3 (intra-group): %a@," Temporal.pp_verdict r.me3;
    Format.fprintf ppf "during-split entries: %d" r.split_entries
end

let me3_online () =
  Online.stateful ~init:(0, [])
    ~step:(fun (idx, earlier) (e : Harness.entry_record) ->
      let bad =
        List.exists
          (fun (prev : Harness.entry_record) ->
            Vector_clock.lt e.entry_req_vc prev.entry_req_vc)
          earlier
      in
      let verdict =
        if bad then
          Temporal.Violated
            { at = idx;
              reason =
                Printf.sprintf
                  "entry %d by process %d served a request that \
                   happened-before an already-served one"
                  idx e.entry_pid }
        else Temporal.Holds
      in
      ((idx + 1, e :: earlier), verdict))

let check_all ~n ~entries (tr : vtrace) =
  let views = List.map (fun (snap : _ Sim.Trace.snapshot) -> snap.states) tr in
  report_of_verdicts
    ~me1:(Online.run (me1_online ()) views)
    ~me2:(Online.run (me2_online ~n) views)
    ~me3:(Online.run (me3_online ()) entries)
