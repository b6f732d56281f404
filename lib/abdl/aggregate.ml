(* A SUM of integers is exact: [isum] adds with [int]'s wrap-around and
   [carries] counts the wraps (+1 past [max_int], -1 past [min_int]), so
   the true total is [isum + carries * 2^63] in whatever order the values
   came, and it fits an [int] exactly when [carries = 0]. [fsum] adds
   every numeric value as a float, for AVG and for a SUM that is not an
   exact [int]. [min]/[max] are [Null] until a value arrives ([add]
   ignores [Null]). *)
type state = {
  count : int;
  numeric_count : int;
  ints_only : bool;  (* every summed value was an Int: keep SUM integral *)
  isum : int;
  carries : int;
  fsum : float;
  min : Abdm.Value.t;
  max : Abdm.Value.t;
}

let empty =
  {
    count = 0;
    numeric_count = 0;
    ints_only = true;
    isum = 0;
    carries = 0;
    fsum = 0.;
    min = Abdm.Value.Null;
    max = Abdm.Value.Null;
  }

(* the wrap of [a + b] into [s]: +1, -1 or 0 *)
let carry a b s = if b >= 0 then if s < a then 1 else 0 else if s > a then -1 else 0

(* [v] if it sorts strictly before (after) the current extreme: a tie
   keeps the value met first *)
let lower cur v =
  if Abdm.Value.is_null cur || Abdm.Value.compare v cur < 0 then v else cur

let higher cur v =
  if Abdm.Value.is_null cur || Abdm.Value.compare v cur > 0 then v else cur

let add state (v : Abdm.Value.t) =
  match v with
  | Abdm.Value.Null -> state
  | Abdm.Value.Int i ->
    let isum = state.isum + i in
    {
      state with
      count = state.count + 1;
      numeric_count = state.numeric_count + 1;
      isum;
      carries = state.carries + carry state.isum i isum;
      fsum = state.fsum +. float_of_int i;
      min = lower state.min v;
      max = higher state.max v;
    }
  | Abdm.Value.Float f ->
    {
      state with
      count = state.count + 1;
      numeric_count = state.numeric_count + 1;
      ints_only = false;
      fsum = state.fsum +. f;
      min = lower state.min v;
      max = higher state.max v;
    }
  | Abdm.Value.Str _ ->
    {
      state with
      count = state.count + 1;
      min = lower state.min v;
      max = higher state.max v;
    }

let merge a b =
  let isum = a.isum + b.isum in
  {
    count = a.count + b.count;
    numeric_count = a.numeric_count + b.numeric_count;
    ints_only = a.ints_only && b.ints_only;
    isum;
    carries = a.carries + b.carries + carry a.isum b.isum isum;
    fsum = a.fsum +. b.fsum;
    min = (if Abdm.Value.is_null b.min then a.min else lower a.min b.min);
    max = (if Abdm.Value.is_null b.max then a.max else higher a.max b.max);
  }

let finalize (agg : Ast.aggregate) state =
  match agg with
  | Ast.Count -> Abdm.Value.Int state.count
  | Ast.Sum ->
    if state.numeric_count = 0 then Abdm.Value.Null
    else if state.ints_only && state.carries = 0 then Abdm.Value.Int state.isum
    else Abdm.Value.Float state.fsum
  | Ast.Avg ->
    if state.numeric_count = 0 then Abdm.Value.Null
    else Abdm.Value.Float (state.fsum /. float_of_int state.numeric_count)
  | Ast.Min -> state.min
  | Ast.Max -> state.max
