type t = { group_of_box : int array; groups : int }

let uniform_groups ~n ~groups =
  if groups < 1 || groups > n then invalid_arg "Topology: groups must be in [1, n]";
  { group_of_box = Array.init n (fun b -> b mod groups); groups }

let n t = Array.length t.group_of_box
let groups t = t.groups

let group_of t b =
  if b < 0 || b >= Array.length t.group_of_box then
    invalid_arg "Topology.group_of: box out of range";
  t.group_of_box.(b)

let same_group t a b = group_of t a = group_of t b
let cost t a b = if same_group t a b then 0 else 1

let group_members t gid =
  let acc = ref [] in
  for b = Array.length t.group_of_box - 1 downto 0 do
    if t.group_of_box.(b) = gid then acc := b :: !acc
  done;
  !acc
