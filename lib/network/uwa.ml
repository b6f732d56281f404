type t = (string, (string * Abdm.Value.t) list ref) Hashtbl.t

let create () : t = Hashtbl.create 16

let slot (t : t) record =
  match Hashtbl.find_opt t record with
  | Some cell -> cell
  | None ->
    let cell = ref [] in
    Hashtbl.replace t record cell;
    cell

let move t ~record ~item value =
  let cell = slot t record in
  if List.mem_assoc item !cell then
    cell :=
      List.map
        (fun (name, v) -> if String.equal name item then name, value else name, v)
        !cell
  else cell := !cell @ [ item, value ]

let get t ~record ~item =
  match Hashtbl.find_opt t record with
  | Some cell -> List.assoc_opt item !cell
  | None -> None

let load t ~record values =
  let cell = slot t record in
  cell := values

let template t ~record =
  match Hashtbl.find_opt t record with
  | Some cell -> !cell
  | None -> []
