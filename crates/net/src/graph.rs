//! Directed graph with per-edge capacities.
//!
//! The representation is optimised for the access patterns of the GDDR
//! pipeline: iteration over the out-edges (and in-edges) of a node, and
//! O(1) lookup of an edge's endpoints and capacity by [`EdgeId`].

use std::fmt;

use gddr_ser::{json_struct, FromJson, Json, JsonError, ToJson};

/// Identifier of a vertex in a [`Graph`].
///
/// Node ids are dense: a graph with `n` nodes has ids `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a directed edge in a [`Graph`].
///
/// Edge ids are dense: a graph with `m` edges has ids `0..m`, in
/// insertion order. The GNN policies rely on this to index edge-feature
/// rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl ToJson for NodeId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for NodeId {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(NodeId(usize::from_json(json)?))
    }
}

impl ToJson for EdgeId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for EdgeId {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(EdgeId(usize::from_json(json)?))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors produced by graph construction and mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node id was out of range for this graph.
    InvalidNode(NodeId),
    /// An edge id was out of range for this graph.
    InvalidEdge(EdgeId),
    /// A self-loop was requested; link networks never contain them.
    SelfLoop(NodeId),
    /// A capacity was non-positive or non-finite.
    InvalidCapacity(f64),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidNode(n) => write!(f, "node {n} does not exist"),
            GraphError::InvalidEdge(e) => write!(f, "edge {e} does not exist"),
            GraphError::SelfLoop(n) => write!(f, "self-loop at node {n} is not allowed"),
            GraphError::InvalidCapacity(c) => {
                write!(f, "capacity {c} must be finite and positive")
            }
        }
    }
}

impl std::error::Error for GraphError {}

json_struct! {
    #[derive(Debug, Clone, PartialEq)]
    struct Edge {
        src: NodeId,
        dst: NodeId,
        capacity: f64,
    }
}

/// A directed graph with link capacities.
///
/// Real link networks are undirected; following the paper we model each
/// undirected link as two directed edges (see [`Graph::add_link`]).
///
/// # Example
///
/// ```
/// use gddr_net::{Graph, NodeId};
///
/// # fn main() -> Result<(), gddr_net::GraphError> {
/// let mut g = Graph::new("triangle");
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let c = g.add_node("c");
/// g.add_link(a, b, 10.0)?;
/// g.add_link(b, c, 10.0)?;
/// g.add_link(c, a, 10.0)?;
/// assert_eq!(g.num_edges(), 6);
/// assert_eq!(g.out_edges(a).len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    node_names: Vec<String>,
    edges: Vec<Edge>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl ToJson for Graph {
    /// Serialises name, node names and the edge list; adjacency is
    /// derived data and is rebuilt on deserialisation.
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("node_names", self.node_names.to_json()),
            ("edges", self.edges.to_json()),
        ])
    }
}

impl FromJson for Graph {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let name = String::from_json(json.field("name")?)?;
        let node_names = Vec::<String>::from_json(json.field("node_names")?)?;
        let edges = Vec::<Edge>::from_json(json.field("edges")?)?;
        let mut graph = Graph::new(name);
        for n in node_names {
            graph.add_node(n);
        }
        for e in &edges {
            graph
                .add_edge(e.src, e.dst, e.capacity)
                .map_err(|err| JsonError(format!("invalid edge in graph json: {err}")))?;
        }
        Ok(graph)
    }
}

impl Graph {
    /// Creates an empty graph with a human-readable name.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            node_names: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// The graph's name (topology name for zoo graphs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(EdgeId)
    }

    /// Adds a vertex and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.into());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// The display name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Adds a single directed edge `src -> dst` with the given capacity.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown endpoints, self-loops, or a
    /// non-finite / non-positive capacity.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: f64,
    ) -> Result<EdgeId, GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(GraphError::InvalidCapacity(capacity));
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, capacity });
        self.out_adj[src.0].push(id);
        self.in_adj[dst.0].push(id);
        Ok(id)
    }

    /// Adds an undirected link as two directed edges of equal capacity,
    /// returning `(forward, backward)` edge ids.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add_edge`].
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
    ) -> Result<(EdgeId, EdgeId), GraphError> {
        let fwd = self.add_edge(a, b, capacity)?;
        let bwd = self.add_edge(b, a, capacity)?;
        Ok((fwd, bwd))
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if node.0 < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::InvalidNode(node))
        }
    }

    /// The `(source, destination)` endpoints of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.0];
        (e.src, e.dst)
    }

    /// The source vertex of an edge.
    pub fn src(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.0].src
    }

    /// The destination vertex of an edge.
    pub fn dst(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.0].dst
    }

    /// The capacity of an edge.
    pub fn capacity(&self, edge: EdgeId) -> f64 {
        self.edges[edge.0].capacity
    }

    /// Overwrites the capacity of an edge.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown edge or an invalid capacity.
    pub fn set_capacity(&mut self, edge: EdgeId, capacity: f64) -> Result<(), GraphError> {
        if edge.0 >= self.edges.len() {
            return Err(GraphError::InvalidEdge(edge));
        }
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(GraphError::InvalidCapacity(capacity));
        }
        self.edges[edge.0].capacity = capacity;
        Ok(())
    }

    /// Out-edges of a node, in insertion order.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_adj[node.0]
    }

    /// In-edges of a node, in insertion order.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_adj[node.0]
    }

    /// Successor nodes of `node` (one entry per out-edge).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[node.0].iter().map(move |&e| self.dst(e))
    }

    /// Predecessor nodes of `node` (one entry per in-edge).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_adj[node.0].iter().map(move |&e| self.src(e))
    }

    /// Finds a directed edge from `src` to `dst`, if one exists.
    pub fn edge_between(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_adj[src.0]
            .iter()
            .copied()
            .find(|&e| self.dst(e) == dst)
    }

    /// All capacities, indexed by edge id.
    pub fn capacities(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.capacity).collect()
    }

    /// Rebuilds this graph without the edges for which `keep` returns
    /// `false`. Node ids are preserved; edge ids are re-densified and the
    /// returned vector maps new [`EdgeId`]s to the original ones.
    pub fn filter_edges(&self, mut keep: impl FnMut(EdgeId) -> bool) -> (Graph, Vec<EdgeId>) {
        let mut g = Graph::new(self.name.clone());
        for name in &self.node_names {
            g.add_node(name.clone());
        }
        let mut mapping = Vec::new();
        for e in self.edges() {
            if keep(e) {
                let (s, t) = self.endpoints(e);
                g.add_edge(s, t, self.capacity(e))
                    .expect("edges of a valid graph remain valid");
                mapping.push(e);
            }
        }
        (g, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new("path");
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            g.add_link(w[0], w[1], 1.0).unwrap();
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new("empty");
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let g = path_graph(4);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_edges(NodeId(1)).len(), 2);
        assert_eq!(g.in_edges(NodeId(1)).len(), 2);
        assert_eq!(g.out_edges(NodeId(0)).len(), 1);
    }

    #[test]
    fn endpoints_and_capacity() {
        let mut g = Graph::new("g");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, 42.0).unwrap();
        assert_eq!(g.endpoints(e), (a, b));
        assert_eq!(g.src(e), a);
        assert_eq!(g.dst(e), b);
        assert_eq!(g.capacity(e), 42.0);
        g.set_capacity(e, 7.0).unwrap();
        assert_eq!(g.capacity(e), 7.0);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new("g");
        let a = g.add_node("a");
        assert_eq!(g.add_edge(a, a, 1.0), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn rejects_bad_capacity() {
        let mut g = Graph::new("g");
        let a = g.add_node("a");
        let b = g.add_node("b");
        assert!(matches!(
            g.add_edge(a, b, 0.0),
            Err(GraphError::InvalidCapacity(_))
        ));
        assert!(matches!(
            g.add_edge(a, b, f64::NAN),
            Err(GraphError::InvalidCapacity(_))
        ));
        assert!(matches!(
            g.add_edge(a, b, -3.0),
            Err(GraphError::InvalidCapacity(_))
        ));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut g = Graph::new("g");
        let a = g.add_node("a");
        assert_eq!(
            g.add_edge(a, NodeId(5), 1.0),
            Err(GraphError::InvalidNode(NodeId(5)))
        );
    }

    #[test]
    fn edge_between_lookup() {
        let g = path_graph(3);
        assert!(g.edge_between(NodeId(0), NodeId(1)).is_some());
        assert!(g.edge_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn successors_and_predecessors() {
        let g = path_graph(3);
        let succ: Vec<_> = g.successors(NodeId(1)).collect();
        assert!(succ.contains(&NodeId(0)));
        assert!(succ.contains(&NodeId(2)));
        let pred: Vec<_> = g.predecessors(NodeId(0)).collect();
        assert_eq!(pred, vec![NodeId(1)]);
    }

    #[test]
    fn filter_edges_preserves_nodes_and_maps_ids() {
        let g = path_graph(3);
        // Keep only forward direction edges (even ids by construction).
        let (h, map) = g.filter_edges(|e| e.0 % 2 == 0);
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(map, vec![EdgeId(0), EdgeId(2)]);
        assert_eq!(h.endpoints(EdgeId(0)), g.endpoints(EdgeId(0)));
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(3).to_string(), "v3");
        assert_eq!(EdgeId(7).to_string(), "e7");
        let err = GraphError::SelfLoop(NodeId(1));
        assert!(err.to_string().contains("self-loop"));
    }
}
