type aggregate =
  | Count
  | Sum
  | Avg
  | Min
  | Max

type target_item =
  | T_all
  | T_attr of string
  | T_agg of aggregate * string

type request =
  | Insert of Abdm.Record.t
  | Delete of Abdm.Query.t
  | Update of Abdm.Query.t * Abdm.Modifier.t list
  | Retrieve of retrieve
  | Retrieve_common of retrieve_common

and retrieve = {
  query : Abdm.Query.t;
  targets : target_item list;
  by : string option;
}

and retrieve_common = {
  rc_left : Abdm.Query.t;
  rc_left_attr : string;
  rc_right : Abdm.Query.t;
  rc_right_attr : string;
  rc_targets : target_item list;
}

type transaction = request list

let retrieve ?by query targets = Retrieve { query; targets; by }

let has_aggregate targets =
  let is_agg = function
    | T_agg _ -> true
    | T_all | T_attr _ -> false
  in
  List.exists is_agg targets

let aggregate_to_string = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let target_to_string = function
  | T_all -> "ALL"
  | T_attr attr -> attr
  | T_agg (agg, attr) -> aggregate_to_string agg ^ "(" ^ attr ^ ")"

(* Appends [f] over [items] separated by ", ". *)
let add_list buf f items =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      f buf x)
    items

let add_query buf query =
  Buffer.add_char buf '(';
  Abdm.Query.to_buffer buf query;
  Buffer.add_char buf ')'

let add_targets buf targets =
  Buffer.add_char buf '(';
  add_list buf (fun buf t -> Buffer.add_string buf (target_to_string t)) targets;
  Buffer.add_char buf ')'

let to_buffer buf = function
  | Insert record ->
    Buffer.add_string buf "INSERT (";
    Abdm.Record.keywords_to_buffer buf record;
    (* the textual portion, quoted like a string value *)
    let text = Abdm.Record.text record in
    if not (String.equal text "") then begin
      Buffer.add_string buf " | ";
      Abdm.Value.to_buffer buf (Abdm.Value.Str text)
    end;
    Buffer.add_char buf ')'
  | Delete query ->
    Buffer.add_string buf "DELETE ";
    add_query buf query
  | Update (query, modifiers) ->
    Buffer.add_string buf "UPDATE ";
    add_query buf query;
    Buffer.add_string buf " (";
    add_list buf Abdm.Modifier.to_buffer modifiers;
    Buffer.add_char buf ')'
  | Retrieve { query; targets; by } ->
    Buffer.add_string buf "RETRIEVE ";
    add_query buf query;
    Buffer.add_char buf ' ';
    add_targets buf targets;
    Option.iter
      (fun attr ->
        Buffer.add_string buf " BY ";
        Buffer.add_string buf attr)
      by
  | Retrieve_common { rc_left; rc_left_attr; rc_right; rc_right_attr; rc_targets } ->
    Buffer.add_string buf "RETRIEVE_COMMON ";
    add_query buf rc_left;
    Buffer.add_string buf " (";
    Buffer.add_string buf rc_left_attr;
    Buffer.add_string buf ") AND ";
    add_query buf rc_right;
    Buffer.add_string buf " (";
    Buffer.add_string buf rc_right_attr;
    Buffer.add_string buf ") ";
    add_targets buf rc_targets

let to_string request =
  let buf = Buffer.create 128 in
  to_buffer buf request;
  Buffer.contents buf

let pp ppf request = Format.pp_print_string ppf (to_string request)
