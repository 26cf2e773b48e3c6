//! Exchange state and the gain/temptation calculus.
//!
//! During an exchange the observable state is the set of delivered items
//! `D` and the money paid so far `m`. [`Progress`] holds that state for
//! one deal, changes it one [`Action`] at a time, and derives from it
//! both parties' *defection gains*, *completion gains* and *temptations*
//! — the quantities the paper's safety conditions (§2) constrain.
//!
//! Sign conventions (all quantities are [`Money`], positive = better for
//! the named party):
//!
//! * consumer defect gain  = `Vc(D) − m`
//! * consumer complete gain = `Vc(G) − P`
//! * consumer temptation   = defect − complete = `R − (Vc(G) − Vc(D))`
//!   with `R = P − m` the outstanding payment
//! * supplier defect gain  = `m − Vs(D)`
//! * supplier complete gain = `P − Vs(G)`
//! * supplier temptation   = `(Vs(G) − Vs(D)) − R`
//!
//! A positive consumer temptation means the consumer is currently
//! *indebted* (has received more value than the outstanding balance
//! justifies) and would gain by walking away; symmetrically for the
//! supplier. The fully safe window of the paper keeps both ≤ 0.

use crate::deal::Deal;
use crate::goods::ItemId;
use crate::money::Money;
use crate::sequence::Action;

/// The two exchange roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The party delivering goods.
    Supplier,
    /// The party paying money.
    Consumer,
}

impl Role {
    /// The opposite role.
    pub fn other(self) -> Role {
        match self {
            Role::Supplier => Role::Consumer,
            Role::Consumer => Role::Supplier,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Role::Supplier => "supplier",
            Role::Consumer => "consumer",
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One exchange in progress: the deal, the delivered set `D` and the
/// money paid `m`, with every derived quantity of the calculus.
///
/// [`Progress::apply`] is the only way to change the state.
///
/// # Examples
///
/// ```
/// use trustex_core::deal::Deal;
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
/// use trustex_core::sequence::Action;
/// use trustex_core::state::Progress;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0)])?;
/// let deal = Deal::new(goods, Money::from_units(6))?;
/// let mut p = Progress::new(&deal);
/// assert_eq!(p.outstanding(), Money::from_units(6));
/// p.apply(&Action::Pay(Money::from_units(4)))?;
/// let id = deal.goods().ids().next().unwrap();
/// p.apply(&Action::Deliver(id))?;
/// assert_eq!(p.delivered_count(), 1);
/// assert_eq!(p.outstanding(), Money::from_units(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Progress<'a> {
    totals: Totals<'a>,
    delivered: Vec<bool>,
}

/// The running totals of an exchange: everything in [`Progress`] but the
/// delivered flags. It is `Copy`, so a forecast such as
/// [`crate::execute::max_future_temptation`] can walk a schedule on a
/// copy without allocating.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Totals<'a> {
    deal: &'a Deal,
    delivered_count: usize,
    delivered_cost: Money,
    delivered_value: Money,
    paid: Money,
}

impl Totals<'_> {
    /// Adds the effect of `action` without checking it: the item must
    /// exist and not be delivered yet ([`Progress::apply`] checks both).
    ///
    /// # Panics
    ///
    /// Panics if a delivered item id is out of range for the deal.
    pub(crate) fn add(&mut self, action: &Action) {
        match *action {
            Action::Deliver(id) => {
                let item = self.deal.goods().item(id);
                self.delivered_count += 1;
                // Value before cost: in the other order the compiler
                // merges this add with the payment arm's and spills both
                // sums to the stack in `max_future_temptation`'s loop.
                self.delivered_value += item.consumer_value();
                self.delivered_cost += item.supplier_cost();
            }
            Action::Pay(amount) => self.paid += amount,
        }
    }

    fn defect_gain(&self, role: Role) -> Money {
        match role {
            Role::Supplier => self.paid - self.delivered_cost,
            Role::Consumer => self.delivered_value - self.paid,
        }
    }

    fn complete_gain(&self, role: Role) -> Money {
        match role {
            Role::Supplier => self.deal.supplier_profit(),
            Role::Consumer => self.deal.consumer_surplus(),
        }
    }

    pub(crate) fn temptation(&self, role: Role) -> Money {
        self.defect_gain(role) - self.complete_gain(role)
    }
}

/// Error applying an action to a [`Progress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The item was already delivered.
    AlreadyDelivered(ItemId),
    /// The item id does not belong to the deal's goods.
    UnknownItem(ItemId),
    /// Payments must be strictly positive.
    NonPositivePayment(Money),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::AlreadyDelivered(id) => write!(f, "{id} was already delivered"),
            StateError::UnknownItem(id) => write!(f, "{id} does not belong to this deal"),
            StateError::NonPositivePayment(m) => {
                write!(f, "payment must be positive, got {m}")
            }
        }
    }
}

impl std::error::Error for StateError {}

impl<'a> Progress<'a> {
    /// The initial state of `deal`: nothing delivered, nothing paid.
    pub fn new(deal: &'a Deal) -> Progress<'a> {
        Progress {
            totals: Totals {
                deal,
                delivered_count: 0,
                delivered_cost: Money::ZERO,
                delivered_value: Money::ZERO,
                paid: Money::ZERO,
            },
            delivered: vec![false; deal.goods().len()],
        }
    }

    /// Applies one action.
    ///
    /// Overpaying beyond `P` is permitted here; the verifier rejects it
    /// at the sequence level.
    ///
    /// # Errors
    ///
    /// [`StateError::UnknownItem`] or [`StateError::AlreadyDelivered`]
    /// for a delivery, [`StateError::NonPositivePayment`] for a payment
    /// of `≤ 0`. The state is unchanged on error.
    pub fn apply(&mut self, action: &Action) -> Result<(), StateError> {
        match *action {
            Action::Deliver(id) => {
                let flag = self
                    .delivered
                    .get_mut(id.index())
                    .ok_or(StateError::UnknownItem(id))?;
                if *flag {
                    return Err(StateError::AlreadyDelivered(id));
                }
                *flag = true;
            }
            Action::Pay(amount) => {
                if !amount.is_positive() {
                    return Err(StateError::NonPositivePayment(amount));
                }
            }
        }
        self.totals.add(action);
        Ok(())
    }

    /// The deal being exchanged.
    pub fn deal(&self) -> &'a Deal {
        self.totals.deal
    }

    pub(crate) fn totals(&self) -> Totals<'a> {
        self.totals
    }

    /// Number of items delivered so far.
    pub fn delivered_count(&self) -> usize {
        self.totals.delivered_count
    }

    /// Whether the given item has been delivered.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the deal.
    pub fn is_delivered(&self, id: ItemId) -> bool {
        self.delivered[id.index()]
    }

    /// Money paid so far (`m`).
    pub fn paid(&self) -> Money {
        self.totals.paid
    }

    /// `Vs(D)`: supplier cost of the delivered subset.
    pub fn delivered_cost(&self) -> Money {
        self.totals.delivered_cost
    }

    /// `Vc(D)`: consumer value of the delivered subset.
    pub fn delivered_value(&self) -> Money {
        self.totals.delivered_value
    }

    /// Whether the exchange is complete: all delivered and fully paid.
    pub fn is_complete(&self) -> bool {
        self.delivered_count() == self.delivered.len() && self.outstanding().is_zero()
    }

    /// Outstanding payment `R = P − m` (negative if overpaid).
    pub fn outstanding(&self) -> Money {
        self.deal().price() - self.paid()
    }

    /// Remaining supplier cost `Vs(G) − Vs(D)`.
    pub fn remaining_cost(&self) -> Money {
        self.deal().goods().total_supplier_cost() - self.delivered_cost()
    }

    /// Remaining consumer value `Vc(G) − Vc(D)`.
    pub fn remaining_value(&self) -> Money {
        self.deal().goods().total_consumer_value() - self.delivered_value()
    }

    /// The role's gain from defecting now: `m − Vs(D)` for the supplier,
    /// `Vc(D) − m` for the consumer.
    pub fn defect_gain(&self, role: Role) -> Money {
        self.totals.defect_gain(role)
    }

    /// The role's gain from completing: `P − Vs(G)` for the supplier,
    /// `Vc(G) − P` for the consumer.
    pub fn complete_gain(&self, role: Role) -> Money {
        self.totals.complete_gain(role)
    }

    /// The role's temptation: defect gain minus complete gain.
    pub fn temptation(&self, role: Role) -> Money {
        self.totals.temptation(role)
    }

    /// What the named party loses (vs. completing) if the *other* party
    /// defects right now. Equal to the negation of the other party's
    /// temptation — the identity the paper's bounds exploit.
    pub fn exposure(&self, role: Role) -> Money {
        -self.temptation(role.other())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goods::Goods;

    fn deal() -> Deal {
        // Vs(G) = 6, Vc(G) = 12, P = 9.
        let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap();
        Deal::new(goods, Money::from_units(9)).unwrap()
    }

    fn pay(units: i64) -> Action {
        Action::Pay(Money::from_units(units))
    }

    #[test]
    fn initial_state_quantities() {
        let d = deal();
        let p = Progress::new(&d);
        assert_eq!(p.outstanding(), Money::from_units(9));
        assert_eq!(p.remaining_cost(), Money::from_units(6));
        assert_eq!(p.remaining_value(), Money::from_units(12));
        // T_c(0) = P - Vc(G) = -3 ; T_s(0) = Vs(G) - P = -3.
        assert_eq!(p.temptation(Role::Consumer), Money::from_units(-3));
        assert_eq!(p.temptation(Role::Supplier), Money::from_units(-3));
        assert_eq!(p.defect_gain(Role::Consumer), Money::ZERO);
        assert_eq!(p.defect_gain(Role::Supplier), Money::ZERO);
        assert_eq!(p.complete_gain(Role::Consumer), d.consumer_surplus());
        assert_eq!(p.complete_gain(Role::Supplier), d.supplier_profit());
    }

    #[test]
    fn temptation_identity_with_exposure() {
        let d = deal();
        let mut p = Progress::new(&d);
        p.apply(&pay(4)).unwrap();
        let ids: Vec<ItemId> = d.goods().ids().collect();
        p.apply(&Action::Deliver(ids[0])).unwrap();
        assert_eq!(p.exposure(Role::Consumer), -p.temptation(Role::Supplier));
        assert_eq!(p.exposure(Role::Supplier), -p.temptation(Role::Consumer));
    }

    #[test]
    fn delivery_updates_sums() {
        let d = deal();
        let mut p = Progress::new(&d);
        let ids: Vec<ItemId> = d.goods().ids().collect();
        p.apply(&Action::Deliver(ids[1])).unwrap();
        assert_eq!(p.delivered_cost(), Money::from_units(1));
        assert_eq!(p.delivered_value(), Money::from_units(4));
        assert!(p.is_delivered(ids[1]));
        assert!(!p.is_delivered(ids[0]));
        assert_eq!(p.delivered_count(), 1);
    }

    #[test]
    fn double_delivery_rejected() {
        let d = deal();
        let mut p = Progress::new(&d);
        let id = d.goods().ids().next().unwrap();
        p.apply(&Action::Deliver(id)).unwrap();
        assert_eq!(
            p.apply(&Action::Deliver(id)),
            Err(StateError::AlreadyDelivered(id))
        );
        assert_eq!(p.delivered_count(), 1, "a rejected action changes nothing");
    }

    #[test]
    fn unknown_item_rejected() {
        let d = deal();
        let mut p = Progress::new(&d);
        let bogus = ItemId(99);
        assert_eq!(
            p.apply(&Action::Deliver(bogus)),
            Err(StateError::UnknownItem(bogus))
        );
    }

    #[test]
    fn non_positive_payment_rejected() {
        let d = deal();
        let mut p = Progress::new(&d);
        assert!(matches!(
            p.apply(&pay(0)),
            Err(StateError::NonPositivePayment(_))
        ));
        assert!(matches!(
            p.apply(&pay(-1)),
            Err(StateError::NonPositivePayment(_))
        ));
        assert_eq!(p.paid(), Money::ZERO);
    }

    #[test]
    fn consumer_temptation_rises_with_delivery() {
        let d = deal();
        let mut p = Progress::new(&d);
        let before = p.temptation(Role::Consumer);
        let id = d.goods().ids().next().unwrap(); // Vc = 5
        p.apply(&Action::Deliver(id)).unwrap();
        let after = p.temptation(Role::Consumer);
        assert_eq!(after - before, Money::from_units(5));
    }

    #[test]
    fn supplier_temptation_rises_with_payment() {
        let d = deal();
        let mut p = Progress::new(&d);
        let before = p.temptation(Role::Supplier);
        p.apply(&pay(2)).unwrap();
        let after = p.temptation(Role::Supplier);
        assert_eq!(after - before, Money::from_units(2));
    }

    #[test]
    fn completion_detection() {
        let d = deal();
        let mut p = Progress::new(&d);
        for id in d.goods().ids() {
            p.apply(&Action::Deliver(id)).unwrap();
        }
        assert!(!p.is_complete());
        p.apply(&pay(9)).unwrap();
        assert!(p.is_complete());
        // At completion both temptations are zero.
        assert_eq!(p.temptation(Role::Consumer), Money::ZERO);
        assert_eq!(p.temptation(Role::Supplier), Money::ZERO);
    }

    #[test]
    fn role_helpers() {
        assert_eq!(Role::Supplier.other(), Role::Consumer);
        assert_eq!(Role::Consumer.other(), Role::Supplier);
        assert_eq!(Role::Supplier.to_string(), "supplier");
        assert_eq!(Role::Consumer.label(), "consumer");
    }
}
