(* Whole-program stress tests: realistic MiniJava programs (data
   structures, sorting, polymorphic hierarchies) compiled and run
   end-to-end, checking both results and persistence behaviour. *)

open Helpers

let run name expected sources () =
  let _store, vm = fresh_vm () in
  check_output name expected (run_program vm sources)

let linked_list =
  {|public class Node {
  public int value;
  public Node next;
  public Node(int v) { value = v; }
}

public class LinkedList {
  private Node head;
  private int size;
  public void push(int v) {
    Node n = new Node(v);
    n.next = head;
    head = n;
    size = size + 1;
  }
  public int pop() {
    int v = head.value;
    head = head.next;
    size = size - 1;
    return v;
  }
  public int size() { return size; }
  public LinkedList reverse() {
    LinkedList out = new LinkedList();
    Node cur = head;
    while (cur != null) { out.push(cur.value); cur = cur.next; }
    return out;
  }
  public String toString() {
    StringBuffer sb = new StringBuffer("[");
    Node cur = head;
    boolean first = true;
    while (cur != null) {
      if (!first) { sb.append(" "); }
      sb.append(cur.value);
      first = false;
      cur = cur.next;
    }
    return sb.append("]").toString();
  }
}

public class Main {
  public static void main(String[] args) {
    LinkedList list = new LinkedList();
    for (int i = 1; i <= 5; i++) { list.push(i * 10); }
    System.println(list.toString());
    System.println(list.reverse().toString());
    System.println(String.valueOf(list.pop()));
    System.println(String.valueOf(list.size()));
  }
}
|}

let bst =
  {|public class Tree {
  private Tree left;
  private Tree right;
  private int key;
  private boolean used;
  public void insert(int k) {
    if (!used) { key = k; used = true; return; }
    if (k < key) {
      if (left == null) { left = new Tree(); }
      left.insert(k);
    } else if (k > key) {
      if (right == null) { right = new Tree(); }
      right.insert(k);
    }
  }
  public boolean contains(int k) {
    if (!used) { return false; }
    if (k == key) { return true; }
    if (k < key) { return left != null && left.contains(k); }
    return right != null && right.contains(k);
  }
  public void inorder(StringBuffer sb) {
    if (!used) { return; }
    if (left != null) { left.inorder(sb); }
    sb.append(key).append(" ");
    if (right != null) { right.inorder(sb); }
  }
  public int height() {
    if (!used) { return 0; }
    int lh = 0;
    int rh = 0;
    if (left != null) { lh = left.height(); }
    if (right != null) { rh = right.height(); }
    return 1 + Math.max(lh, rh);
  }
}

public class Main {
  public static void main(String[] args) {
    Tree t = new Tree();
    // pseudo-random insertion via a linear congruential generator
    int seed = 12345;
    for (int i = 0; i < 200; i++) {
      seed = seed * 1103515245 + 12345;
      int k = Math.abs(seed % 1000);
      t.insert(k);
    }
    t.insert(777);
    System.println(String.valueOf(t.contains(777)));
    System.println(String.valueOf(t.contains(-1)));
    StringBuffer sb = new StringBuffer();
    t.inorder(sb);
    // verify the inorder walk is sorted
    String s = sb.toString().trim();
    boolean sorted = true;
    int prev = -1;
    int start = 0;
    for (int i = 0; i <= s.length(); i++) {
      if (i == s.length() || s.charAt(i) == ' ') {
        int v = Integer.parseInt(s.substring(start, i));
        if (v < prev) { sorted = false; }
        prev = v;
        start = i + 1;
      }
    }
    System.println(String.valueOf(sorted));
    System.println(String.valueOf(t.height() > 4));
  }
}
|}

let quicksort =
  {|public class Main {
  static void sort(int[] xs, int lo, int hi) {
    if (lo >= hi) { return; }
    int pivot = xs[(lo + hi) / 2];
    int i = lo;
    int j = hi;
    while (i <= j) {
      while (xs[i] < pivot) { i++; }
      while (xs[j] > pivot) { j--; }
      if (i <= j) {
        int tmp = xs[i];
        xs[i] = xs[j];
        xs[j] = tmp;
        i++;
        j--;
      }
    }
    sort(xs, lo, j);
    sort(xs, i, hi);
  }
  public static void main(String[] args) {
    int n = 500;
    int[] xs = new int[n];
    int seed = 42;
    for (int i = 0; i < n; i++) {
      seed = seed * 1103515245 + 12345;
      xs[i] = seed % 10000;
    }
    sort(xs, 0, n - 1);
    boolean ok = true;
    for (int i = 1; i < n; i++) { if (xs[i - 1] > xs[i]) { ok = false; } }
    System.println("sorted=" + ok + " min=" + xs[0] + " max=" + xs[n - 1]);
    System.println(String.valueOf(xs[0] <= xs[n - 1]));
  }
}
|}

let shapes_polymorphism =
  {|interface Shape {
  double area();
}

public abstract class Named implements Shape {
  protected String name;
  public Named(String n) { name = n; }
  public String describe() { return name + ":" + area(); }
}

public class Rect extends Named {
  private double w;
  private double h;
  public Rect(double w, double h) { super("rect"); this.w = w; this.h = h; }
  public double area() { return w * h; }
}

public class Square extends Rect {
  public Square(double side) { super(side, side); }
}

public class Main {
  public static void main(String[] args) {
    Named[] shapes = new Named[3];
    shapes[0] = new Rect(2.0, 3.0);
    shapes[1] = new Square(4.0);
    shapes[2] = new Rect(1.0, 1.5);
    double total = 0.0;
    for (int i = 0; i < shapes.length; i++) {
      System.println(shapes[i].describe());
      total = total + shapes[i].area();
    }
    System.println("total=" + total);
    Shape first = shapes[0];
    System.println(String.valueOf(first instanceof Rect));
    System.println(String.valueOf(shapes[1] instanceof Square));
  }
}
|}

let string_processing =
  {|public class Main {
  public static void main(String[] args) {
    // word frequency with Hashtable
    String text = "the quick the lazy the dog quick";
    java.util.Hashtable counts = new java.util.Hashtable();
    int start = 0;
    for (int i = 0; i <= text.length(); i++) {
      if (i == text.length() || text.charAt(i) == ' ') {
        String word = text.substring(start, i);
        Integer old = (Integer) counts.get(word);
        if (old == null) { counts.put(word, Integer.valueOf(1)); }
        else { counts.put(word, Integer.valueOf(old.intValue() + 1)); }
        start = i + 1;
      }
    }
    System.println("the=" + ((Integer) counts.get("the")).intValue());
    System.println("quick=" + ((Integer) counts.get("quick")).intValue());
    System.println("dog=" + ((Integer) counts.get("dog")).intValue());
    System.println("missing=" + counts.get("missing"));
  }
}
|}

let persistence_stress () =
  (* Build a big structure, stabilise, reopen, verify. *)
  let open Pstore in
  let open Minijava in
  let path = Filename.temp_file "stress" ".store" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let store = Store.create () in
      let vm = Boot.boot_fresh store in
      compile_into vm
        [
          {|public class Builder {
  public static java.util.Vector build(int n) {
    java.util.Vector v = new java.util.Vector();
    for (int i = 0; i < n; i++) { v.addElement("item" + i); }
    return v;
  }
  public static boolean check(java.util.Vector v, int n) {
    if (v.size() != n) { return false; }
    for (int i = 0; i < n; i++) {
      if (!v.elementAt(i).equals("item" + i)) { return false; }
    }
    return true;
  }
}
|};
        ];
      let vec =
        Vm.call_static vm ~cls:"Builder" ~name:"build" ~desc:"(I)Ljava.util.Vector;"
          [ Pvalue.Int 2000l ]
      in
      Store.Session.set_root (Store.default_session store) "vec" vec;
      ignore (Store.gc store);
      Store.stabilise ~path store;
      let store2 = Store.open_file path in
      let vm2 = Boot.vm_for store2 in
      let vec2 = Option.get (Store.Session.root (Store.default_session store2) "vec") in
      let ok =
        Vm.call_static vm2 ~cls:"Builder" ~name:"check" ~desc:"(Ljava.util.Vector;I)Z"
          [ vec2; Pvalue.Int 2000l ]
      in
      check_bool "2000 items survive" true (Pvalue.equal ok (Pvalue.Bool true));
      Pstore.Integrity.check_exn store2)

let suite =
  [
    test "linked list with reverse"
      (run "list" "[50 40 30 20 10]\n[10 20 30 40 50]\n50\n4\n" [ linked_list ]);
    test "binary search tree (200 random keys)"
      (run "bst" "true\nfalse\ntrue\ntrue\n" [ bst ]);
    test "quicksort of 500 ints" (run "qs" "sorted=true min=-9994 max=9943\ntrue\n" [ quicksort ]);
    test "polymorphic shapes"
      (run "shapes" "rect:6.0\nrect:16.0\nrect:1.5\ntotal=23.5\ntrue\ntrue\n"
         [ shapes_polymorphism ]);
    test "word frequency with Hashtable"
      (run "words" "the=3\nquick=2\ndog=1\nmissing=null\n" [ string_processing ]);
    test "2000-element structure survives stabilise/reopen" persistence_stress;
  ]

let props = []
