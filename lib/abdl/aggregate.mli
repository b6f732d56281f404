(** Mergeable aggregate states. The MBDS backends each compute a partial
    state over their record partition; the controller merges partials and
    finalises — which is what makes COUNT/SUM/AVG/MIN/MAX distribute
    correctly across backends. *)

type state

val empty : state

(** [add state v] folds one attribute value in. [Null] values are ignored;
    strings participate in COUNT/MIN/MAX only. *)
val add : state -> Abdm.Value.t -> state

val merge : state -> state -> state

(** [finalize agg state] extracts the aggregate's answer. An empty state
    yields [Int 0] for COUNT and [Null] for the others. SUM over [Int]
    values only is the exact [Int] total whenever that total fits an
    OCaml [int] (intermediate overflow does not matter); a total outside
    that range, or any [Float] among the values, answers the [Float] sum.
    AVG is always the [Float] sum over the count of numeric values. *)
val finalize : Ast.aggregate -> state -> Abdm.Value.t
