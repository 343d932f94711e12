(* Tests for the UNITY temporal operators and the clause-report
   container.  The whole-trace operators of the reference model
   ([Offline], test-side) are checked on hand-made traces and against
   their laws on random boolean traces; the library's online monitors
   are then checked verdict for verdict against them. *)

open Unityspec

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ok = Temporal.is_ok

(* ------------------------------------------------------------------ *)
(* Safety operators                                                    *)

let test_invariant () =
  Alcotest.(check bool) "holds" true (ok (Offline.invariant (fun x -> x > 0) [ 1; 2; 3 ]));
  (match Offline.invariant ~name:"positive" (fun x -> x > 0) [ 1; 0; 3 ] with
   | Temporal.Violated { at = 1; reason } ->
     Alcotest.(check bool) "reason names clause" true
       (String.length reason > 0 && String.sub reason 0 8 = "positive")
   | _ -> Alcotest.fail "expected violation at 1");
  Alcotest.(check bool) "empty trace" true
    (ok (Offline.invariant (fun _ -> false) []))

let test_unless () =
  (* p unless q: from p-and-not-q, next is p or q *)
  let p x = x = 1 and q x = x = 2 in
  Alcotest.(check bool) "p persists" true (ok (Offline.unless ~p ~q [ 1; 1; 1 ]));
  Alcotest.(check bool) "p to q" true (ok (Offline.unless ~p ~q [ 1; 2; 0 ]));
  Alcotest.(check bool) "p escapes" false (ok (Offline.unless ~p ~q [ 1; 0 ]));
  Alcotest.(check bool) "no p no constraint" true
    (ok (Offline.unless ~p ~q [ 0; 3; 0 ]))

let test_stable () =
  let p x = x >= 2 in
  Alcotest.(check bool) "stays" true (ok (Offline.stable p [ 0; 2; 3; 4 ]));
  Alcotest.(check bool) "drops" false (ok (Offline.stable p [ 2; 1 ]))

let test_step_invariant () =
  Alcotest.(check bool) "monotone" true
    (ok (Offline.step_invariant (fun a b -> a <= b) [ 1; 2; 2; 5 ]));
  (match Offline.step_invariant (fun a b -> a <= b) [ 1; 0 ] with
   | Temporal.Violated { at = 1; _ } -> ()
   | _ -> Alcotest.fail "expected violation at 1");
  Alcotest.(check bool) "singleton" true
    (ok (Offline.step_invariant (fun _ _ -> false) [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Liveness operators                                                  *)

let test_leads_to () =
  let p x = x = 1 and q x = x = 9 in
  Alcotest.(check bool) "discharged" true (ok (Offline.leads_to ~p ~q [ 1; 0; 9 ]));
  Alcotest.(check bool) "p equals q point" true
    (ok (Offline.leads_to ~p ~q:(fun x -> x = 1) [ 1 ]));
  (match Offline.leads_to ~p ~q [ 0; 1; 0; 1 ] with
   | Temporal.Pending { obligations } ->
     Alcotest.(check (list int)) "both open" [ 1; 3 ] obligations
   | _ -> Alcotest.fail "expected pending");
  Alcotest.(check bool) "multiple discharged by one q" true
    (ok (Offline.leads_to ~p ~q [ 1; 1; 1; 9 ]))

let test_leads_to_always () =
  let p x = x = 1 and q x = x >= 9 in
  Alcotest.(check bool) "holds" true
    (ok (Offline.leads_to_always ~p ~q [ 1; 0; 9; 10 ]));
  Alcotest.(check bool) "q unstable" false
    (ok (Offline.leads_to_always ~p ~q [ 1; 9; 0 ]));
  (match Offline.leads_to_always ~p ~q [ 1; 0 ] with
   | Temporal.Pending _ -> ()
   | _ -> Alcotest.fail "expected pending")

let test_ok_with_tail () =
  let v = Temporal.Pending { obligations = [ 98; 99 ] } in
  Alcotest.(check bool) "tail allowed" true
    (Temporal.ok_with_tail ~trace_len:100 ~margin:5 v);
  Alcotest.(check bool) "early not allowed" false
    (Temporal.ok_with_tail ~trace_len:100 ~margin:1 v);
  Alcotest.(check bool) "violated never" false
    (Temporal.ok_with_tail ~trace_len:100 ~margin:100
       (Temporal.Violated { at = 0; reason = "x" }));
  Alcotest.(check bool) "holds always" true
    (Temporal.ok_with_tail ~trace_len:100 ~margin:0 Temporal.Holds)

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)

let test_both_and_all () =
  let viol = Temporal.Violated { at = 2; reason = "boom" } in
  let pend = Temporal.Pending { obligations = [ 1 ] } in
  Alcotest.(check bool) "holds both" true (ok (Temporal.both Temporal.Holds Temporal.Holds));
  (match Temporal.both pend viol with
   | Temporal.Violated _ -> ()
   | _ -> Alcotest.fail "violation dominates");
  (match Temporal.both pend (Temporal.Pending { obligations = [ 1; 4 ] }) with
   | Temporal.Pending { obligations } ->
     Alcotest.(check (list int)) "merged dedup" [ 1; 4 ] obligations
   | _ -> Alcotest.fail "expected pending");
  match Temporal.all [ Temporal.Holds; pend; Temporal.Holds ] with
  | Temporal.Pending _ -> ()
  | _ -> Alcotest.fail "pending survives all"

let test_forall () =
  let v = Offline.forall (fun i -> if i = 2 then Temporal.Violated { at = 0; reason = "i2" } else Temporal.Holds) 4 in
  (match v with
   | Temporal.Violated { reason = "i2"; _ } -> ()
   | _ -> Alcotest.fail "expected i2 violation");
  Alcotest.(check bool) "all hold" true (ok (Offline.forall (fun _ -> Temporal.Holds) 3))

let test_forall_pairs () =
  let seen = ref [] in
  let _ =
    Offline.forall_pairs
      (fun j k ->
        seen := (j, k) :: !seen;
        Temporal.Holds)
      3
  in
  Alcotest.(check int) "6 ordered pairs" 6 (List.length !seen);
  Alcotest.(check bool) "no diagonal" true
    (List.for_all (fun (j, k) -> j <> k) !seen)

(* ------------------------------------------------------------------ *)
(* Law cross-checks on random traces                                   *)

let gen_trace = QCheck2.Gen.(list_size (1 -- 30) (0 -- 3))

let test_stable_is_unless_false =
  qtest "stable p = p unless false" gen_trace (fun tr ->
      let p x = x >= 2 in
      ok (Offline.stable p tr)
      = ok (Offline.unless ~p ~q:(fun _ -> false) tr))

let test_invariant_implies_stable =
  qtest "invariant p implies stable p" gen_trace (fun tr ->
      let p x = x >= 1 in
      (not (ok (Offline.invariant p tr))) || ok (Offline.stable p tr))

let test_leads_to_reflexive =
  qtest "p leads_to p" gen_trace (fun tr ->
      ok (Offline.leads_to ~p:(fun x -> x = 2) ~q:(fun x -> x = 2) tr))

let test_leads_to_weakening =
  qtest "leads_to weakens target" gen_trace (fun tr ->
      let p x = x = 1 in
      let q x = x = 2 in
      let q' x = x >= 2 in
      (not (ok (Offline.leads_to ~p ~q tr)))
      || ok (Offline.leads_to ~p ~q:q' tr))

let test_unless_with_q_true =
  qtest "p unless true always holds" gen_trace (fun tr ->
      ok (Offline.unless ~p:(fun x -> x = 1) ~q:(fun _ -> true) tr))

(* ------------------------------------------------------------------ *)
(* Online monitors: exact equivalence with the offline operators       *)

let same_verdict a b =
  match a, b with
  | Temporal.Holds, Temporal.Holds -> true
  | Temporal.Violated { at = i; _ }, Temporal.Violated { at = j; _ } -> i = j
  | Temporal.Pending { obligations = xs }, Temporal.Pending { obligations = ys }
    -> xs = ys
  | _ -> false

let p x = x = 1
let q x = x >= 2

let online_equiv name offline online =
  qtest ("online = offline: " ^ name) gen_trace (fun tr ->
      same_verdict (offline tr) (Online.run online tr))

let test_online_invariant =
  online_equiv "invariant" (Offline.invariant p) (Online.invariant p)

let test_online_step_invariant =
  online_equiv "step_invariant"
    (Offline.step_invariant ( <= ))
    (Online.step_invariant ( <= ))

let test_online_unless =
  online_equiv "unless" (Offline.unless ~p ~q) (Online.unless p q)

let test_online_stable =
  online_equiv "stable" (Offline.stable q) (Online.stable q)

let test_online_leads_to =
  online_equiv "leads_to" (Offline.leads_to ~p ~q) (Online.leads_to p q)

let test_online_leads_to_always =
  online_equiv "leads_to_always"
    (Offline.leads_to_always ~p ~q)
    (Online.leads_to_always p q)

let test_online_persistence () =
  (* feeding a monitor must not mutate the original *)
  let m = Online.invariant p in
  let m1 = Online.feed m 1 in
  let _bad = Online.feed m1 0 in
  Alcotest.(check bool) "original unaffected" true
    (Temporal.is_ok (Online.verdict m1))

let test_online_contramap () =
  let m = Online.contramap fst (Online.invariant p) in
  let m = Online.feed_all m [ (1, "a"); (1, "b") ] in
  Alcotest.(check bool) "adapted" true (Temporal.is_ok (Online.verdict m));
  let m = Online.feed m (9, "c") in
  Alcotest.(check bool) "violation seen" false
    (Temporal.is_ok (Online.verdict m))

let test_online_all () =
  let m = Online.all [ Online.invariant p; Online.leads_to p q ] in
  let m = Online.feed_all m [ 1; 1 ] in
  (match Online.verdict m with
   | Temporal.Pending _ -> ()
   | _ -> Alcotest.fail "expected pending obligations");
  let m = Online.feed m 0 in
  match Online.verdict m with
  | Temporal.Violated _ -> ()
  | _ -> Alcotest.fail "violation must dominate"

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let test_report () =
  let r =
    Report.of_list
      [ ("a", Temporal.Holds);
        ("b", Temporal.Pending { obligations = [ 3 ] });
        ("c", Temporal.Violated { at = 1; reason = "bad" }) ]
  in
  Alcotest.(check bool) "not all hold" false (Report.all_hold r);
  Alcotest.(check bool) "not safe" false (Report.safe r);
  Alcotest.(check int) "failures" 2 (List.length (Report.failures r));
  Alcotest.(check int) "violations" 1 (List.length (Report.violations r));
  Alcotest.(check int) "pending" 1 (List.length (Report.pending r));
  let safe_r = Report.of_list [ ("a", Temporal.Holds); ("b", Temporal.Pending { obligations = [] }) ] in
  Alcotest.(check bool) "safe with pending" true (Report.safe safe_r);
  Alcotest.(check bool) "merge" true
    (List.length (Report.merge r safe_r) = 5);
  Alcotest.(check bool) "to_string nonempty" true
    (String.length (Report.to_string r) > 0)

let () =
  Alcotest.run "unityspec"
    [ ( "safety",
        [ Alcotest.test_case "invariant" `Quick test_invariant;
          Alcotest.test_case "unless" `Quick test_unless;
          Alcotest.test_case "stable" `Quick test_stable;
          Alcotest.test_case "step_invariant" `Quick test_step_invariant ] );
      ( "liveness",
        [ Alcotest.test_case "leads_to" `Quick test_leads_to;
          Alcotest.test_case "leads_to_always" `Quick test_leads_to_always;
          Alcotest.test_case "ok_with_tail" `Quick test_ok_with_tail ] );
      ( "combinators",
        [ Alcotest.test_case "both/all" `Quick test_both_and_all;
          Alcotest.test_case "forall" `Quick test_forall;
          Alcotest.test_case "forall_pairs" `Quick test_forall_pairs ] );
      ( "laws",
        [ test_stable_is_unless_false;
          test_invariant_implies_stable;
          test_leads_to_reflexive;
          test_leads_to_weakening;
          test_unless_with_q_true ] );
      ( "online",
        [ test_online_invariant;
          test_online_step_invariant;
          test_online_unless;
          test_online_stable;
          test_online_leads_to;
          test_online_leads_to_always;
          Alcotest.test_case "persistence" `Quick test_online_persistence;
          Alcotest.test_case "contramap" `Quick test_online_contramap;
          Alcotest.test_case "all" `Quick test_online_all ] );
      ("report", [ Alcotest.test_case "report" `Quick test_report ]) ]
