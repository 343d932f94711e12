type verdict =
  | Holds
  | Violated of { at : int; reason : string }
  | Pending of { obligations : int list }

let is_ok = function Holds -> true | Violated _ | Pending _ -> false

let pp_verdict ppf = function
  | Holds -> Format.fprintf ppf "holds"
  | Violated { at; reason } ->
    Format.fprintf ppf "violated at %d: %s" at reason
  | Pending { obligations } ->
    Format.fprintf ppf "pending obligations at %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      obligations

let ok_with_tail ~trace_len ~margin = function
  | Holds -> true
  | Violated _ -> false
  | Pending { obligations } ->
    List.for_all (fun i -> i >= trace_len - margin) obligations

let both a b =
  match a, b with
  | Violated _, _ -> a
  | _, Violated _ -> b
  | Pending { obligations = xs }, Pending { obligations = ys } ->
    Pending { obligations = List.sort_uniq compare (xs @ ys) }
  | Pending _, Holds -> a
  | Holds, _ -> b

let all vs = List.fold_left both Holds vs
