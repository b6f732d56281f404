type kind =
  | Point
  | Range
  | Window

type probe = {
  probe_pred : Predicate.t;
  probe_upper : Predicate.t option;  (** a window's upper bound *)
  probe_kind : kind;
  probe_card : int;
}

type access =
  | Store_scan of { rows : int }
  | File_scan of { file : string; rows : int }
  | Index_probe of {
      file : string;
      probes : probe list;
      rows : int;
      file_rows : int;
    }

type step = {
  conjunction : Query.conjunction;
  access : access;
  residual : Predicate.t list;
}

type t = step list

let kind_name = function
  | Point -> "point"
  | Range -> "range"
  | Window -> "window"

let access_rows = function
  | Store_scan { rows } -> rows
  | File_scan { rows; _ } -> rows
  | Index_probe { rows; _ } -> rows

let probe_to_string p =
  Printf.sprintf "%s %s [%d]" (kind_name p.probe_kind)
    (match p.probe_upper with
     | None -> Predicate.to_string p.probe_pred
     | Some upper ->
       Predicate.to_string p.probe_pred ^ " AND " ^ Predicate.to_string upper)
    p.probe_card

let access_to_string = function
  | Store_scan { rows } -> Printf.sprintf "scan store [%d rows]" rows
  | File_scan { file; rows } -> Printf.sprintf "scan file %s [%d rows]" file rows
  | Index_probe { file; probes; rows; file_rows } ->
    Printf.sprintf "index %s: %s -> %d of %d rows" file
      (String.concat " ^ " (List.map probe_to_string probes))
      rows file_rows

let step_to_string i step =
  let residual =
    match step.residual with
    | [] -> "none"
    | preds -> String.concat " AND " (List.map Predicate.to_string preds)
  in
  Printf.sprintf "disjunct %d: %s\n  access: %s\n  residual: %s" (i + 1)
    (Query.conjunction_to_string step.conjunction)
    (access_to_string step.access)
    residual

let to_string = function
  | [] -> "plan: empty query (matches nothing)"
  | steps ->
    let n = List.length steps in
    Printf.sprintf "plan: %d disjunct%s\n%s" n
      (if n = 1 then "" else "s")
      (String.concat "\n" (List.mapi step_to_string steps))

let pp ppf plan = Format.pp_print_string ppf (to_string plan)
