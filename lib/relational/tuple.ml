type t = Value.t array

let empty : t = [||]

let concat = Array.append

let project (t : t) idxs = Array.map (fun i -> t.(i)) idxs

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let pp ppf (t : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
    (Array.to_list t)
