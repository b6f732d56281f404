(* The whole-record retrieve the language engines used before
   [Mapping.Kernel.select]: issue [RETRIEVE (query) (ALL)] through
   [Mapping.Kernel.run] and rebuild each row into its (dbkey, record)
   pair. The oracle of the select equivalence property, and the
   retrieve of the DL/I and Daplex oracles. *)

let retrieve kernel query =
  match Mapping.Kernel.run kernel (Abdl.Ast.retrieve query [ Abdl.Ast.T_all ]) with
  | Abdl.Exec.Rows rows ->
    List.filter_map
      (fun (row : Abdl.Exec.row) ->
        match row.dbkey with
        | Some key ->
          Some
            ( key,
              Abdm.Record.make
                (List.map (fun (attr, v) -> Abdm.Keyword.make attr v) row.values) )
        | None -> None)
      rows
  | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ -> []
