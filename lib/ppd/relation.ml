type t = { name : string; attrs : string array; tuples : Value.t array list }

let make ~name ~attrs tuples =
  let attrs = Array.of_list attrs in
  let n = Array.length attrs in
  let tuples =
    List.map
      (fun tup ->
        if List.length tup <> n then
          invalid_arg
            (Printf.sprintf "Relation.make: tuple arity mismatch in %s" name);
        Array.of_list tup)
      tuples
  in
  { name; attrs; tuples }

let name t = t.name
let attrs t = Array.copy t.attrs
let arity t = Array.length t.attrs
let tuples t = t.tuples

let attr_index t a =
  let rec go i =
    if i = Array.length t.attrs then raise Not_found
    else if t.attrs.(i) = a then i
    else go (i + 1)
  in
  go 0

let column t i =
  List.sort_uniq Value.compare (List.map (fun tup -> tup.(i)) t.tuples)

let select t pred = List.filter pred t.tuples

let pp ppf t =
  Format.fprintf ppf "@[<v>%s(%s) [%d tuples]@]" t.name
    (String.concat ", " (Array.to_list t.attrs))
    (List.length t.tuples)
